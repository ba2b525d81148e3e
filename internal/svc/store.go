package svc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// DataNode control RPC params/results. Block bytes move only over v2
// streams (wire.go); dn.stored answers the verification read with the
// size and CRC32C the DataNode computed over its own copy, or OK false
// for a block it does not hold.
type getParams struct {
	Block dfs.BlockID
}

type storedResult struct {
	Size int64
	Sum  uint32
	OK   bool
}

type blocksResult struct {
	Blocks []dfs.BlockID
}

// remoteStore is the RPC proxy for one DataNode's block storage: it
// implements dfs.BlockStore, so the exact engine code paths —
// BlockIO's write loop and read ladder, redistribute, repair — drive
// remote DataNodes over TCP. The NameNode owns one fleet of them for
// what it copies itself; every Client owns another for its puts and
// gets.
//
// Up is the owner's liveness belief, not ground truth: it flips down
// when an RPC fails at the transport layer and back up when fresh
// evidence arrives — a heartbeat at the NameNode, the NameNode's
// belief in an allocate or locate reply at a client. Transport
// failures are wrapped in
// dfs.ErrNodeDown per the BlockStore error contract, so the failover
// and retry machinery classifies a partitioned node exactly like a
// crashed one.
type remoteStore struct {
	id   cluster.NodeID
	addr string // the node's address
	peer string // the node's endpoint name, for the fault hook

	// conns are the proxy's parked connections to its node, carrying its
	// calls and its streams alike: every exchange of this proxy goes to
	// the one address, so the fleet's pool is its proxies' pools
	// together.
	conns streamPool

	// resolve maps chain node ids to data addresses for pipeline
	// writes.
	resolve func(cluster.NodeID) (string, bool)

	// brk, when non-nil, is this node's client-side circuit breaker:
	// a run of transport failures opens it, fast-failing further calls
	// (one nil check instead of one deadline each) and flipping Up()
	// false so the availability-aware replica ordering routes around
	// the node until a half-open probe succeeds. See breaker.go.
	brk *breaker

	// notePeer, when set, routes deep-pipeline evidence to the fleet:
	// commit and setup acks name OTHER chain nodes whose hop failed (or
	// worked), and that evidence must reach those nodes' breakers — a
	// gray node that never heads a chain would otherwise stall every
	// write that includes it, forever, because only head-of-chain
	// failures are observed directly.
	notePeer func(node cluster.NodeID, ok bool)

	mu sync.Mutex
	up bool
}

// newStoreFleet builds the proxies for the DataNodes at addrs (indexed
// by NodeID), dialing as endpoint local, and the same fleet as the
// dfs.BlockStore slice a dfs.BlockIO or dfs.NameNode takes. With brk
// enabled every proxy gets a circuit breaker reporting into the
// returned stats (nil otherwise) and drawing probe jitter from its own
// split of g — split only then, so a breaker-free owner's RNG sequence
// is untouched.
func newStoreFleet(addrs []string, local string, faults TransportFaults, brk BreakerConfig, g *stats.RNG) ([]*remoteStore, []dfs.BlockStore, *BreakerStats) {
	addrs = append([]string(nil), addrs...)
	resolve := func(n cluster.NodeID) (string, bool) {
		if int(n) < 0 || int(n) >= len(addrs) {
			return "", false
		}
		return addrs[n], true
	}
	stores := make([]*remoteStore, len(addrs))
	ifaces := make([]dfs.BlockStore, len(addrs))
	for i := range stores {
		id := cluster.NodeID(i)
		stores[i] = &remoteStore{
			id:      id,
			addr:    addrs[i],
			peer:    endpointName(id),
			conns:   streamPool{local: local, faults: faults},
			resolve: resolve,
			up:      true,
		}
		ifaces[i] = stores[i]
	}
	if brk.Threshold <= 0 {
		return stores, ifaces, nil
	}
	brkStats := &BreakerStats{}
	// Deep-pipeline evidence: when a commit or setup ack names another
	// chain node's hop as down (or working), that node's own breaker
	// accumulates the outcome exactly like a direct call — without
	// this, a gray node that never heads a chain would stall every
	// pipeline that includes it and never get walled off.
	notePeer := func(n cluster.NodeID, ok bool) {
		if int(n) >= 0 && int(n) < len(stores) {
			stores[n].brk.record(false, ok)
		}
	}
	for _, st := range stores {
		st.brk = newBreaker(brk, g.Split(), brkStats)
		st.notePeer = notePeer
	}
	return stores, ifaces, brkStats
}

func (s *remoteStore) Up() bool {
	if s.brk.blocked() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

func (s *remoteStore) SetUp(up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.up = up
}

// observe runs one exchange with the DataNode under the breaker and
// classifies how it ended: the peer answered (its own error passes
// through with its taxonomy — the wire works, whatever it said — and so
// does a replica's chunk that failed its checksum, which says the
// replica is bad, not the node), the caller cancelled or the exchange
// never started because its context was already done (a lost hedge
// race, an abandoned operation or an expired deadline proves nothing
// about the node, so neither the breaker nor the liveness belief
// moves), or the transport
// failed (the store is marked down and the error wraps
// dfs.ErrNodeDown). what names the exchange in the
// abandoned-call error, and is called only to build that error: the
// exchange that succeeds formats nothing.
func (s *remoteStore) observe(ctx context.Context, what func() string, exchange func() error) error {
	probe, admitted := s.brk.admit()
	if !admitted {
		return fmt.Errorf("%w: datanode %d circuit open, fast-failing", dfs.ErrNodeDown, s.id)
	}
	err := exchange()
	if err == nil {
		s.brk.record(probe, true)
		return nil
	}
	var re *RemoteError
	if errors.As(err, &re) || errors.Is(err, dfs.ErrChecksum) {
		s.brk.record(probe, true)
		return err
	}
	if errors.Is(ctx.Err(), context.Canceled) || errors.Is(err, errNotStarted) {
		s.brk.forget(probe)
		return fmt.Errorf("svc: %s datanode %d abandoned: %w", what(), s.id, err)
	}
	s.brk.record(probe, false)
	s.SetUp(false)
	return fmt.Errorf("%w: datanode %d unreachable: %v", dfs.ErrNodeDown, s.id, err)
}

// call performs one control RPC against the DataNode.
func (s *remoteStore) call(ctx context.Context, method string, params wireValue, result valueReader) error {
	return s.observe(ctx, func() string { return method + " to" }, func() error {
		return s.conns.call(ctx, s.addr, s.peer, method, params, result)
	})
}

func (s *remoteStore) Put(ctx context.Context, id dfs.BlockID, data []byte) (uint32, error) {
	res := s.PutChain(ctx, id, data, nil)
	return res.Sum, res.Failed[s.id]
}

// PutChain streams the block to this node and onward through rest over
// one v2 pipeline (dfs.PipelinePutter).
func (s *remoteStore) PutChain(ctx context.Context, id dfs.BlockID, data []byte, rest []cluster.NodeID) dfs.PipelineResult {
	res := dfs.PipelineResult{Failed: make(map[cluster.NodeID]error, 1+len(rest))}
	chain := make([]chainEntry, 0, 1+len(rest))
	chain = append(chain, chainEntry{Node: s.id, Addr: s.addr})
	for _, n := range rest {
		addr, ok := "", false
		if s.resolve != nil {
			addr, ok = s.resolve(n)
		}
		if !ok {
			// Misconfiguration, not an outage: surface it per-node and
			// pipeline through the resolvable prefix.
			res.Failed[n] = fmt.Errorf("%w: no data address for node %d", dfs.ErrUnknownNode, n)
			continue
		}
		chain = append(chain, chainEntry{Node: n, Addr: addr})
	}
	var acks []ackEntry
	err := s.observe(ctx, func() string { return fmt.Sprintf("pipeline put block %d to", id) }, func() (err error) {
		acks, res.Sum, err = s.conns.pipelinePut(ctx, chain, id, data)
		return err
	})
	if err != nil {
		// The stream broke, or never started: no commit acks, so whether
		// any chain node committed is unknown, and every one is failed. A
		// deep replica that committed with its ack lost is either
		// published by the engine's same-block retry or left unlisted,
		// and the NameNode's repair scan collects it — never the request
		// path, where a delete toward the node that stalled the pipeline
		// would stall just as long.
		for _, ce := range chain {
			res.Failed[ce.Node] = err
		}
		return res
	}
	// A relay passes its downstream acks on unchecked, so an ack may
	// name any node, and a node more than once. Only the chain's own
	// nodes are judged, each by the first entry naming it. Acked is in
	// chain order, so the engine's replica lists match what fan-out
	// over the same holders would have produced.
	for _, ce := range chain {
		j := slices.IndexFunc(acks, func(e ackEntry) bool { return e.Node == ce.Node })
		switch {
		case j < 0:
			res.Failed[ce.Node] = fmt.Errorf("%w: datanode %d missing from pipeline ack", dfs.ErrNodeDown, ce.Node)
		case acks[j].OK:
			res.Acked = append(res.Acked, ce.Node)
			s.peerEvidence(ce.Node, true)
		default:
			rerr := acks[j].err()
			res.Failed[ce.Node] = fmt.Errorf("svc: pipeline put block %d on datanode %d: %w", id, ce.Node, rerr)
			// A node-down ack is transport evidence about that node; an
			// application error (overload shed, full disk) means its
			// wire works fine.
			s.peerEvidence(ce.Node, !errors.Is(rerr, dfs.ErrNodeDown))
		}
	}
	return res
}

// peerEvidence forwards one other chain node's hop outcome to the
// fleet (no-op for this node itself or when unwired).
func (s *remoteStore) peerEvidence(n cluster.NodeID, ok bool) {
	if s.notePeer != nil && n != s.id {
		s.notePeer(n, ok)
	}
}

// Get streams the block from the node into dst's spare capacity
// (dfs.BlockStore).
func (s *remoteStore) Get(ctx context.Context, id dfs.BlockID, dst []byte) (dfs.GetResult, error) {
	var got dfs.GetResult
	err := s.observe(ctx, func() string { return fmt.Sprintf("get block %d from", id) }, func() (err error) {
		got, err = s.conns.streamGet(ctx, s.addr, s.peer, id, dst)
		return err
	})
	return got, err
}

func (s *remoteStore) Delete(ctx context.Context, id dfs.BlockID) error {
	return s.call(ctx, "dn.delete", getParams{Block: id}, nil)
}

// StoredSum asks the node for its own sum of a block (dfs.BlockStore).
// A node that could not be asked — unreachable (dfs.ErrNodeDown) or
// shedding the call as background work (dfs.ErrOverload) — answers
// with that error, which says nothing about the block.
func (s *remoteStore) StoredSum(ctx context.Context, id dfs.BlockID) (int64, uint32, error) {
	var res storedResult
	if err := s.call(ctx, "dn.stored", getParams{Block: id}, &res); err != nil {
		return 0, 0, err
	}
	if !res.OK {
		return 0, 0, fmt.Errorf("%w: block %d on datanode %d", dfs.ErrBlockNotFound, id, s.id)
	}
	return res.Size, res.Sum, nil
}

// StoredBlocks fetches the node's block inventory; ok is false when
// the node is unreachable.
func (s *remoteStore) StoredBlocks(ctx context.Context) ([]dfs.BlockID, bool) {
	var res blocksResult
	if err := s.call(ctx, "dn.blocks", nil, &res); err != nil {
		return nil, false
	}
	return res.Blocks, true
}

// close tears down the proxy's parked connections.
func (s *remoteStore) close() { s.conns.close() }
