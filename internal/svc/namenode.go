package svc

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/wal"
)

// Op RPC params/results (the shell surface of §IV-A over the wire),
// each with its binary codec in values.go. None of them carries file or
// block bytes: a put is nn.allocate, the
// client's own v2 pipelines, nn.complete; a get is nn.locate and the
// client's own v2 reads.
type allocateParams struct {
	Name  string
	Size  int64
	Adapt bool
}

// allocateResult is the NameNode's decision for one put plus its
// current liveness belief, which the client's proxies adopt before
// they move a byte.
type allocateResult struct {
	Alloc dfs.Allocation
	Down  []cluster.NodeID
}

// completeParams reports what the client's pipelines achieved. Report
// rides along so the NameNode's resilience counters (and /metrics)
// keep counting the failovers, retries and degraded blocks of writes
// it no longer performs itself.
type completeParams struct {
	Name   string
	Blocks []dfs.BlockMeta
	Report dfs.WriteReport
}

type locateResult struct {
	Meta dfs.FileMeta
	Down []cluster.NodeID
}

// clusterResult is what a client needs to build its own DataNode
// proxies: where the DataNodes serve, and the breaker and hedge tuning
// this NameNode was configured with, so the data path behaves the
// same whichever side of the wire runs it.
type clusterResult struct {
	DataNodes  []string
	Breaker    BreakerConfig
	Hedge      HedgeConfig
	HedgeReads bool
}

type nameParams struct {
	Name string
}

type listResult struct {
	Files []string
}

type movedResult struct {
	Moved int
}

type distResult struct {
	Counts []int
}

type estimatesResult struct {
	Estimates map[cluster.NodeID]model.Availability
}

// hbState is the NameNode's per-DataNode heartbeat bookkeeping: the
// incarnation and last sequence folded, and when that beat arrived on
// the NameNode's clock. A restarted DataNode announces a new epoch,
// and its sequence numbers start over. state is the failure
// detector's belief.
type hbState struct {
	epoch    uint64
	seq      uint64
	lastBeat time.Time
	state    NodeState
}

// NameNodeServer is the networked ADAPT master: file metadata, the
// block distributor, and the performance predictor behind a frame
// server. It is a transport shell over dfs.NameNode + dfs.Client, so
// every decision — placement, leases, the journaled publish — is the
// engine code the in-process tests certify. It carries no client
// bytes: a client's put is nn.allocate, the client's own pipelines,
// nn.complete, and its get is nn.locate and the client's own reads.
// The remoteStore proxies it owns move only what it copies itself —
// the adapt and rebalance redistributions, repair.
//
// Heartbeats close the predictor loop: the NameNode measures the gap
// since each DataNode's previous beat on its own clock, counts a
// restart or a silence of at least SuspectAfter as one interruption
// and anything shorter as uptime, feeds that to
// cluster.HeartbeatEstimator, and RefreshAvailability publishes a new
// immutable cluster snapshot carrying the per-node (λ, μ) that the
// 1/E[T] placement weights read. Each operation loads one snapshot and
// holds no lock for it, so a fold never waits on an operation and an
// operation never waits on a fold.
type NameNodeServer struct {
	nn     *dfs.NameNode
	cl     *dfs.Client
	srv    *Server
	stores []*remoteStore
	fleet  clusterResult // the nn.cluster reply, fixed at construction
	start  time.Time

	// now is the server's one clock: heartbeat arrival, the failure
	// detector, /metrics and /healthz, and allocation leases all read
	// it. Tests swap it for a virtual clock before any traffic.
	now      func() time.Time
	detector DetectorConfig // defaults applied

	hbMu sync.Mutex
	hb   map[cluster.NodeID]*hbState

	durable    durableState  // WAL journal + snapshot cadence
	stopCh     chan struct{} // closed once by stopLoops
	stopOnce   sync.Once
	loops      sync.WaitGroup // detector + repair goroutines
	repairKick chan struct{}  // coalesced "scan now" signal

	// lifeCtx is the server's lifecycle context: it parents every
	// background operation (the repair scans) and is
	// cancelled by stopLoops, so Shutdown/Crash interrupts in-flight
	// work instead of waiting out its timeouts.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	// brkStats aggregates the per-store circuit breakers' transitions
	// and fast-fails for /metrics (nil when breakers are disabled).
	brkStats *BreakerStats
}

// NameNodeConfig tunes the service's client engine and its
// durability. Zero values keep the dfs defaults and, with an empty
// WALDir, a volatile (PR 4-style) namespace.
type NameNodeConfig struct {
	BlockSize   int64
	Replication int
	// WALDir enables the durable namespace: every mutation is
	// journaled there before it is acknowledged, and construction
	// recovers whatever namespace the directory already holds.
	WALDir string
	// Shards is the namespace shard count. Each shard has its own
	// metadata lock and — under WALDir — its own journal directory, so
	// metadata throughput scales with shards. A WAL directory records
	// its count: 0 takes it (1 for a new directory or a volatile
	// namespace), and another count is refused (no resharding).
	Shards int
	// TenantQuotas seeds per-tenant admission limits (files, bytes,
	// replication-factor ceiling), keyed by tenant name ("@tenant/…"
	// namespace prefixes). Enforced at the shard layer on create.
	TenantQuotas map[string]shard.Quota
	// Admission, when MaxInflight > 0, installs server-side admission
	// control on the metadata service: per-class concurrency limits, a
	// bounded wait queue, and brownout shedding of background traffic.
	// The zero value admits everything (historical behavior).
	Admission AdmissionConfig
	// Breaker, when Threshold > 0, gives every DataNode proxy a
	// client-side circuit breaker so a run of transport failures
	// fast-fails and routes reads around the node until a half-open
	// probe succeeds. The zero value disables breakers.
	Breaker BreakerConfig
	// Hedge, when HedgeReads is set, enables hedged block reads on the
	// engine's read path with these thresholds.
	Hedge HedgeConfig
	// HedgeReads turns hedged reads on (Hedge supplies the tuning;
	// its zero value takes the documented defaults).
	HedgeReads bool
	// Detector sets the heartbeat silences the failure detector acts
	// on; the heartbeat fold counts a silence of at least
	// SuspectAfter as an interruption.
	Detector DetectorConfig
	// snapshotEvery is the checkpoint cadence in WAL records, 256 when
	// 0: once a shard's replay suffix reaches it, the next mutation or
	// repair scan snapshots that shard and truncates its log. Only
	// tests set it, to reach a checkpoint in a few writes.
	snapshotEvery int
}

// HedgeConfig re-exports the engine's hedged-read tuning so service
// construction is configured in one place.
type HedgeConfig = dfs.HedgeConfig

// NewNameNodeServer creates the master for cluster c whose DataNodes
// serve blocks at dnAddrs (indexed by NodeID; length must equal
// c.Len()). The RNG drives placement randomness. faults may be nil.
func NewNameNodeServer(c *cluster.Cluster, dnAddrs []string, g *stats.RNG, faults TransportFaults, cfg NameNodeConfig) (*NameNodeServer, error) {
	if len(dnAddrs) != c.Len() {
		return nil, fmt.Errorf("svc: %d datanode addrs for %d nodes: %w", len(dnAddrs), c.Len(), dfs.ErrUnknownNode)
	}
	detector := cfg.Detector
	if err := detector.defaults(); err != nil {
		return nil, err
	}
	stores, ifaces, brkStats := newStoreFleet(dnAddrs, "namenode", faults, cfg.Breaker, g)
	shards, dirs := cfg.Shards, []string(nil)
	if cfg.WALDir != "" {
		var err error
		if dirs, err = wal.ShardDirs(cfg.WALDir, shards); err != nil {
			return nil, err
		}
		shards = len(dirs)
	} else if shards == 0 {
		shards = 1 // a volatile namespace has no directory to ask
	}
	nn, err := dfs.NewNameNodeSharded(c, ifaces, shards)
	if err != nil {
		return nil, err
	}
	for _, tenant := range sortedQuotaKeys(cfg.TenantQuotas) {
		nn.Quotas().Set(tenant, cfg.TenantQuotas[tenant])
	}
	cl, err := dfs.NewClient(nn, g)
	if err != nil {
		return nil, err
	}
	if cfg.BlockSize > 0 {
		cl.BlockSize = cfg.BlockSize
	}
	if cfg.Replication > 0 {
		cl.Replication = cfg.Replication
	}
	s := &NameNodeServer{
		nn:         nn,
		cl:         cl,
		stores:     stores,
		fleet:      clusterResult{DataNodes: append([]string(nil), dnAddrs...), Breaker: cfg.Breaker, Hedge: cfg.Hedge, HedgeReads: cfg.HedgeReads},
		brkStats:   brkStats,
		start:      time.Now(),
		now:        time.Now,
		detector:   detector,
		hb:         make(map[cluster.NodeID]*hbState),
		stopCh:     make(chan struct{}),
		repairKick: make(chan struct{}, 1),
	}
	// Leases expire by the deadlines that cross the wire, on the
	// server's clock.
	nn.SetLeaseClock(func() time.Time { return s.now() })
	if cfg.HedgeReads {
		if err := nn.SetHedge(cfg.Hedge); err != nil {
			return nil, err
		}
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	if cfg.WALDir != "" {
		journals := make([]*walJournal, len(dirs))
		hooks := make([]dfs.Journal, len(dirs))
		closeAll := func() {
			for _, j := range journals {
				if j != nil {
					_ = j.log.Close()
				}
			}
		}
		for i, dir := range dirs {
			j, files, err := openJournal(dir)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("svc: recover shard %d: %w", i, err)
			}
			journals[i] = j
			hooks[i] = j
			// Recovery first, then the journal: replayed mutations
			// must not be re-journaled.
			if err := nn.RestoreShard(i, files); err != nil {
				closeAll()
				return nil, fmt.Errorf("svc: restore shard %d: %w", i, err)
			}
		}
		if err := nn.SetShardJournals(hooks); err != nil {
			closeAll()
			return nil, err
		}
		// Block ids a previous incarnation leased are never handed out
		// again, published or not.
		ceiling, err := wal.LoadMark(cfg.WALDir, blockIDMark)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("svc: recover block-id reservation: %w", err)
		}
		s.durable.ids.root = cfg.WALDir
		nn.ReserveBlockIDs(dfs.BlockID(ceiling), s.durable.ids.reserve)
		s.durable.journals = journals
		s.durable.snapMus = make([]sync.Mutex, len(journals))
		s.durable.snapshotEvery = 256
		if cfg.snapshotEvery > 0 {
			s.durable.snapshotEvery = uint64(cfg.snapshotEvery)
		}
	}
	s.srv = NewServer("namenode", faults, s.methods())
	if cfg.Admission.MaxInflight > 0 {
		s.srv.SetAdmission(cfg.Admission)
	}
	return s, nil
}

// Admission exposes the metadata service's admission controller (nil
// when disabled).
func (s *NameNodeServer) Admission() *admission { return s.srv.Admission() }

// BreakerStates returns each DataNode proxy's current breaker state,
// indexed by NodeID, and the fleet-wide transition stats. stats is nil
// when breakers are disabled.
func (s *NameNodeServer) BreakerStates() (states []breakerState, stats *BreakerStats) {
	states = make([]breakerState, len(s.stores))
	for i, st := range s.stores {
		states[i] = st.brk.State()
	}
	return states, s.brkStats
}

// sortedQuotaKeys returns the tenant names of a quota map in sorted
// order so construction applies them deterministically.
func sortedQuotaKeys(m map[string]shard.Quota) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Listen binds the metadata service.
func (s *NameNodeServer) Listen(addr string) error { return s.srv.Listen(addr) }

// Addr returns the bound service address.
func (s *NameNodeServer) Addr() string { return s.srv.Addr() }

// Engine exposes the underlying dfs.NameNode (counters, consistency
// checks in tests).
func (s *NameNodeServer) Engine() *dfs.NameNode { return s.nn }

// stopLoops halts the failure-detector and auto-repair goroutines
// (idempotent) and waits for them to exit.
func (s *NameNodeServer) stopLoops() {
	s.stopOnce.Do(func() {
		close(s.stopCh)
		s.lifeCancel()
	})
	s.loops.Wait()
}

// Shutdown stops the background loops, drains in-flight RPCs (bounded
// by ctx), closes the DataNode proxy connections, and cleanly closes
// the WAL.
func (s *NameNodeServer) Shutdown(ctx context.Context) error {
	s.stopLoops()
	err := s.srv.Shutdown(ctx)
	for _, st := range s.stores {
		st.close()
	}
	s.durable.ids.close()
	for _, j := range s.durable.journals {
		if jerr := j.log.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// Crash kills the NameNode the way SIGKILL would: background loops
// stop, the WAL handle is abandoned without a final sync (so a stray
// in-flight handler can never append behind a restarted incarnation's
// back), and the listener and every connection drop without drain.
// Acknowledged mutations are already fsync'd; everything else is
// deliberately lost — that is the failure the recovery tests inject.
func (s *NameNodeServer) Crash() {
	s.stopLoops()
	s.durable.ids.close()
	for _, j := range s.durable.journals {
		j.log.Crash()
	}
	s.srv.Crash()
	for _, st := range s.stores {
		st.close()
	}
}

// methods declares the NameNode's RPCs, each once: its admission class
// and its handler, wrapped in mutation when a success changes the
// namespace. nn.complete is control, not a put: shedding it would throw
// away replication-factor times the file's bytes already on disk, so
// overload is refused one step earlier, at nn.allocate, before bytes
// move.
func (s *NameNodeServer) methods() methodTable {
	return methodTable{
		"nn.heartbeat":   {classControl, typed(s.heartbeat)},
		"nn.cluster":     {classControl, bare(s.cluster)},
		"nn.allocate":    {classPut, typed(s.allocate)},
		"nn.complete":    {classControl, s.mutation(typed(s.complete))},
		"nn.locate":      {classGet, typed(s.locate)},
		"nn.stat":        {classBackground, typed(s.stat)},
		"nn.list":        {classBackground, bare(s.list)},
		"nn.delete":      {classBackground, s.mutation(typed(s.delete))},
		"nn.adapt":       {classBackground, s.mutation(typed(s.adapt))},
		"nn.rebalance":   {classBackground, s.mutation(typed(s.rebalance))},
		"nn.dist":        {classBackground, typed(s.dist)},
		"nn.estimates":   {classBackground, bare(s.estimates)},
		"nn.consistency": {classBackground, bare(s.consistency)},
		"nn.fsck":        {classBackground, bare(s.fsck)},
	}
}

// mutation marks a handler whose success mutates the namespace: the
// snapshot cadence piggybacks on those.
func (s *NameNodeServer) mutation(serve rpcHandler) rpcHandler {
	return func(ctx context.Context, params []byte) (wireValue, error) {
		res, err := serve(ctx, params)
		if err == nil {
			s.maybeSnapshot()
		}
		return res, err
	}
}

func (s *NameNodeServer) heartbeat(_ context.Context, p heartbeatParams) (wireValue, error) {
	return empty{}, s.foldHeartbeat(p)
}

func (s *NameNodeServer) cluster(context.Context) (wireValue, error) { return s.fleet, nil }

func (s *NameNodeServer) allocate(ctx context.Context, p allocateParams) (wireValue, error) {
	alloc, err := s.cl.Allocate(ctx, p.Name, p.Size, p.Adapt)
	if err != nil {
		return nil, err
	}
	return allocateResult{Alloc: *alloc, Down: s.downNodes()}, nil
}

func (s *NameNodeServer) complete(_ context.Context, p completeParams) (wireValue, error) {
	fm, err := s.nn.Complete(p.Name, p.Blocks)
	if err != nil {
		return nil, err
	}
	rc := s.nn.Resilience()
	rc.WriteFailovers.Add(int64(p.Report.Failovers))
	rc.WriteRetries.Add(int64(p.Report.Retries))
	rc.DegradedWrites.Add(int64(p.Report.DegradedBlocks))
	return (*fileMeta)(fm), nil
}

func (s *NameNodeServer) locate(_ context.Context, p nameParams) (wireValue, error) {
	fm, err := s.nn.Locate(p.Name)
	if err != nil {
		return nil, err
	}
	return locateResult{Meta: *fm, Down: s.downNodes()}, nil
}

func (s *NameNodeServer) stat(_ context.Context, p nameParams) (wireValue, error) {
	fm, err := s.nn.Stat(p.Name)
	if err != nil {
		return nil, err
	}
	return (*fileMeta)(fm), nil
}

func (s *NameNodeServer) list(context.Context) (wireValue, error) {
	return listResult{Files: s.nn.List()}, nil
}

func (s *NameNodeServer) delete(ctx context.Context, p nameParams) (wireValue, error) {
	return empty{}, s.nn.DeleteContext(ctx, p.Name)
}

func (s *NameNodeServer) adapt(ctx context.Context, p nameParams) (wireValue, error) {
	moved, err := s.cl.Adapt(ctx, p.Name)
	return movedResult{Moved: moved}, err
}

func (s *NameNodeServer) rebalance(ctx context.Context, p nameParams) (wireValue, error) {
	moved, err := s.cl.Rebalance(ctx, p.Name)
	return movedResult{Moved: moved}, err
}

func (s *NameNodeServer) dist(_ context.Context, p nameParams) (wireValue, error) {
	counts, err := s.nn.BlockDistribution(p.Name)
	return distResult{Counts: counts}, err
}

func (s *NameNodeServer) estimates(context.Context) (wireValue, error) {
	return estimatesResult{Estimates: s.Estimates()}, nil
}

func (s *NameNodeServer) consistency(ctx context.Context) (wireValue, error) {
	return empty{}, s.nn.CheckConsistency(ctx)
}

func (s *NameNodeServer) fsck(context.Context) (wireValue, error) {
	report := healthReport(s.nn.Health())
	return &report, nil
}

// downNodes lists the DataNodes this NameNode currently believes are
// not serving (stale heartbeats, failed RPCs, an open breaker) — the
// belief a client adopts from every allocate and locate reply.
func (s *NameNodeServer) downNodes() []cluster.NodeID {
	var down []cluster.NodeID
	for _, st := range s.stores {
		if !st.Up() {
			down = append(down, st.id)
		}
	}
	return down
}

// foldHeartbeat takes one beat, measures the gap g since the
// sender's previous beat on the server's clock, and feeds the
// estimator: the beat ends one interruption of downtime g if it
// carries a new epoch (a restart) or g is at least SuspectAfter, and
// otherwise g was uptime. The first beat ever seen from a node only
// sets the baseline. It then publishes a cluster snapshot with the
// new (λ, μ), which every operation that starts afterwards reads;
// operations in flight keep the one they loaded.
// A beat whose sequence is not newer than the last folded one within
// its epoch is rejected as stale (delayed duplicate); a beat also
// flips the sender's liveness belief up — it is, evidently, talking.
func (s *NameNodeServer) foldHeartbeat(p heartbeatParams) error {
	if int(p.Node) < 0 || int(p.Node) >= len(s.stores) {
		return fmt.Errorf("%w: node %d", ErrUnknownDataNode, p.Node)
	}

	s.hbMu.Lock()
	// Read under the lock, so each node's beats get arrival times in
	// the order they are folded and no gap is negative.
	now := s.now()
	st, seen := s.hb[p.Node]
	if !seen {
		st = &hbState{epoch: p.Epoch}
		s.hb[p.Node] = st
	}
	restarted := p.Epoch != st.epoch
	if restarted {
		st.epoch, st.seq = p.Epoch, 0
	}
	if p.Seq <= st.seq {
		s.hbMu.Unlock()
		return fmt.Errorf("%w: node %d seq %d <= %d", ErrStaleHeartbeat, p.Node, p.Seq, st.seq)
	}
	gap := now.Sub(st.lastBeat)
	st.seq = p.Seq
	st.lastBeat = now
	wasDead := st.state == NodeDead
	st.state = NodeAlive
	s.hbMu.Unlock()
	if wasDead {
		// A revived node restores capacity: blocks that were
		// unrepairable while it was the only spare target may be
		// repairable now.
		s.kickRepair()
	}

	if seen && (restarted || gap > 0) {
		var err error
		if restarted || gap >= s.detector.SuspectAfter {
			err = s.nn.Heartbeat().ObserveInterruption(p.Node, gap.Seconds())
		} else {
			err = s.nn.Heartbeat().ObserveUptime(p.Node, gap.Seconds())
		}
		if err != nil {
			return fmt.Errorf("svc: fold heartbeat from node %d: %w", p.Node, err)
		}
		s.nn.RefreshAvailability()
	}
	s.stores[p.Node].SetUp(true)
	return nil
}

// Estimates returns the current (λ, μ) snapshot.
func (s *NameNodeServer) Estimates() map[cluster.NodeID]model.Availability {
	return s.nn.Heartbeat().Snapshot()
}

// HeartbeatAges returns, per node that has ever heartbeated, the age
// of its freshest beat on the server's clock. The /metrics endpoint
// exports these.
func (s *NameNodeServer) HeartbeatAges() map[cluster.NodeID]time.Duration {
	now := s.now()
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	out := make(map[cluster.NodeID]time.Duration, len(s.hb))
	for id, st := range s.hb {
		out[id] = now.Sub(st.lastBeat)
	}
	return out
}
