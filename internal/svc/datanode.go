package svc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
)

// heartbeatParams is the wire form of one heartbeat: "I am alive,
// incarnation Epoch, beat number Seq". It carries no observations; the
// NameNode measures uptime and outages itself from when beats arrive.
// Seq orders beats within an incarnation so a delayed duplicate is
// refused.
type heartbeatParams struct {
	Node  cluster.NodeID
	Epoch uint64 // DataNode incarnation marker
	Seq   uint64
}

// epochCounter disambiguates DataNode incarnations created within the
// same wall-clock instant (in-process restarts in tests).
var epochCounter atomic.Uint64

// newEpoch mints an incarnation marker: wall-clock based so a
// restarted process (fresh counter) still differs from its previous
// life, plus a counter so same-process restarts differ too.
func newEpoch() uint64 {
	return uint64(time.Now().UnixNano())<<8 | (epochCounter.Add(1) & 0xff)
}

// endpointName returns the transport endpoint name for a DataNode,
// shared by the server side, the NameNode's proxies, and the chaos
// partition keys.
func endpointName(id cluster.NodeID) string {
	return fmt.Sprintf("datanode-%d", id)
}

// DataNodeServer is one networked DataNode: a dfs.DataNode behind a
// frame server, plus the heartbeat sender that tells the NameNode it
// is alive. It reports nothing about its own availability: the
// NameNode learns (λ, μ) from the silences between the beats it
// receives. While the dfs.DataNode is down the host is interrupted and
// sends no beat.
type DataNodeServer struct {
	id  cluster.NodeID
	dn  *dfs.DataNode
	srv *Server

	// conns are the connections this node parks, by address: its
	// heartbeat channel to the NameNode and its relays to the next hops
	// of the pipelines it relays.
	conns streamPool

	mu     sync.Mutex
	nnAddr string // the NameNode's address; "" before ConnectNameNode
	epoch  uint64 // this incarnation's marker; a restart mints a new one
	seq    uint64

	loopStop chan struct{}
	loopDone chan struct{}
}

// NewDataNodeServer creates a DataNode service for node id. faults
// may be nil. Call ConnectNameNode before heartbeating (the NameNode
// binds after its DataNodes, so the address arrives late).
func NewDataNodeServer(id cluster.NodeID, faults TransportFaults) *DataNodeServer {
	d := &DataNodeServer{
		id:    id,
		dn:    dfs.NewDataNode(id),
		conns: streamPool{local: endpointName(id), faults: faults},
		epoch: newEpoch(),
	}
	d.srv = NewServer(endpointName(id), faults, d.methods())
	d.srv.SetDataHandler(d.serveData)
	return d
}

// ConnectNameNode points the heartbeat channel at the NameNode. The
// connection itself is established lazily on the first beat. Calling
// it again (a restarted NameNode at a new address) closes the
// connections parked to the old address, and the next beat dials the
// new one; an in-flight heartbeat to the old address just fails
// transiently, which loses nothing.
func (d *DataNodeServer) ConnectNameNode(nnAddr string) {
	d.mu.Lock()
	old := d.nnAddr
	d.nnAddr = nnAddr
	d.mu.Unlock()
	if old != "" {
		d.conns.drop(old)
	}
}

// SetAdmission installs admission control on the block service: calls
// and streams compete for the same budget. Call before Listen.
func (d *DataNodeServer) SetAdmission(cfg AdmissionConfig) { d.srv.SetAdmission(cfg) }

// Admission exposes the controller (nil when disabled).
func (d *DataNodeServer) Admission() *admission { return d.srv.Admission() }

// Listen binds the block service (use "127.0.0.1:0" for tests).
func (d *DataNodeServer) Listen(addr string) error {
	return d.srv.Listen(addr)
}

// Addr returns the bound block-service address.
func (d *DataNodeServer) Addr() string { return d.srv.Addr() }

// Node exposes the underlying dfs.DataNode (fault injection, direct
// inspection in tests).
func (d *DataNodeServer) Node() *dfs.DataNode { return d.dn }

// methods declares the DataNode's control RPCs. Block bytes do not come
// this way: they move on streams (pipeline.go).
func (d *DataNodeServer) methods() methodTable {
	return methodTable{
		"dn.delete": {classBackground, typed(func(_ context.Context, p getParams) (wireValue, error) {
			d.dn.Delete(p.Block)
			return empty{}, nil
		})},
		"dn.stored": {classBackground, typed(func(_ context.Context, p getParams) (wireValue, error) {
			size, sum, ok := d.dn.StoredSum(p.Block)
			return storedResult{Size: size, Sum: sum, OK: ok}, nil
		})},
		"dn.blocks": {classBackground, bare(func(context.Context) (wireValue, error) {
			return blocksResult{Blocks: d.dn.StoredBlocks()}, nil
		})},
	}
}

// FlushHeartbeat sends one heartbeat to the NameNode. An interrupted
// node (its dfs.DataNode down) sends nothing and returns nil.
func (d *DataNodeServer) FlushHeartbeat(ctx context.Context) error {
	if !d.dn.Up() {
		return nil
	}
	d.mu.Lock()
	nn := d.nnAddr
	if nn == "" {
		d.mu.Unlock()
		return fmt.Errorf("svc: heartbeat from %s: namenode not connected: %w", endpointName(d.id), ErrConnClosed)
	}
	d.seq++
	hb := heartbeatParams{Node: d.id, Epoch: d.epoch, Seq: d.seq}
	d.mu.Unlock()
	if err := d.conns.call(ctx, nn, "namenode", "nn.heartbeat", hb, nil); err != nil {
		return fmt.Errorf("svc: heartbeat from %s: %w", endpointName(d.id), err)
	}
	return nil
}

// restart begins a new incarnation: a new epoch and sequence. The
// stored blocks are kept, as an interrupted host keeps its disk. The
// NameNode only compares an epoch with the node's previous one, so the
// next value will do, and a chaos schedule driving restarts stays
// deterministic.
func (d *DataNodeServer) restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch++
	d.seq = 0
}

// StartHeartbeats begins a wall-clock heartbeat loop: one heartbeat
// per tick. The interval must be positive. Safe to call once.
func (d *DataNodeServer) StartHeartbeats(interval time.Duration) {
	// The goroutines hold the channels themselves: Stop clears
	// d.loopStop once the loop is done, which may be before the first
	// goroutine has even run.
	stop, done := make(chan struct{}), make(chan struct{})
	d.loopStop, d.loopDone = stop, done
	loopCtx, loopCancel := context.WithCancel(context.Background())
	go func() {
		// Stop closes loopStop; cancelling the loop context unblocks a
		// beat that is mid-flight against an unresponsive NameNode, so
		// Stop never waits out the per-beat timeout.
		<-stop
		loopCancel()
	}()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(loopCtx, interval)
				_ = d.FlushHeartbeat(ctx) // a lost beat only lengthens the gap the NameNode measures
				cancel()
			}
		}
	}()
}

// Stop gracefully shuts the DataNode down: the heartbeat loop halts,
// in-flight block RPCs and streams drain (bounded by ctx), connections
// close — the served ones and the ones this node parked — and the
// memory-only store is emptied into the replica pool, as the exit of
// the process would free it.
func (d *DataNodeServer) Stop(ctx context.Context) error {
	if d.loopStop != nil {
		close(d.loopStop)
		<-d.loopDone
		d.loopStop = nil
	}
	err := d.srv.Shutdown(ctx)
	d.conns.close()
	d.dn.Clear()
	return err
}
