package hadoopsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/sim"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// taskState tracks a map task through its lifecycle.
type taskState int

const (
	taskPending taskState = iota + 1
	taskRunning
	taskDone
)

type task struct {
	id             int
	job            int // index into simulator.jobs (0 for single-job runs)
	holders        []int
	state          taskState
	activeAttempts int
	hasDuplicate   bool
	// firstExec is the execution start of the task's oldest attempt in
	// its current running episode — the redundant policy's stagger
	// reference. Reset each time the task re-enters the running state.
	firstExec float64
	// everAborted marks tasks that lost an attempt to an
	// interruption; their subsequent fetches count as failure-induced
	// migration (the paper's migration component), whereas transfers
	// for voluntary load-balancing steals are scheduling cost (misc).
	everAborted bool
	// attempts chains the task's live attempts (attempt.sibling),
	// activeAttempts of them, in no particular order.
	attempts *attempt
	// qhead is the position of the task's most recent entry in the
	// global pending queue, -1 when it has none (see pending.go).
	qhead int32
}

// attempt is one execution try of a task on a node, possibly preceded
// by a block migration. It is the handler of its own completion timer.
// Finished, aborted and cancelled attempts are recycled through
// simulator.freeAttempts.
type attempt struct {
	s             *simulator
	task          *task
	node          int
	transferStart float64
	transferEnd   float64
	migrated      bool
	// failureInduced marks transfers forced by volatility (re-fetch
	// of an aborted task, or no live holder); only these charge the
	// migration component.
	failureInduced bool
	execStart      float64
	plannedEnd     float64
	// timer is idle whenever the attempt is free: it has fired or been
	// cancelled, so recycling may reset it.
	timer   sim.Timer
	runIdx  int      // index in simulator.running, -1 when inactive
	sibling *attempt // next live attempt of the same task, or next free one
	// key and heapIdx place the attempt in the speculation index
	// (candidates.go); heapIdx is -1 while it is not a member. parked
	// marks a would-be member held back under a closed source
	// (sources.go).
	key     float64
	heapIdx int
	parked  bool
}

type nodeSim struct {
	s    *simulator
	id   int
	up   bool
	rate float64
	// avail is the node's availability model, for E[T] of a partial
	// task on it.
	avail model.Availability

	// interruption generation: arrival fires the next interruption,
	// lasting arrivalDur when it comes from the trace; recovery ends
	// the outage.
	lambda     float64
	service    stats.Distribution
	traceEv    []trace.Event
	traceIdx   int
	arrival    sim.Timer
	arrivalDur float64
	downUntil  float64
	recovery   sim.Timer

	// work state
	localQueue []int // task ids; dispatched with lazy state checks
	localHead  int
	running    *attempt
	inIdle     bool
	retry      sim.Timer // congestion-retry wakeup
	// specRetry re-offers speculation to this node after a predictive
	// or redundant policy could not place a duplicate; specBackoff is
	// the current retry delay (exponential, reset on any successful
	// attempt start).
	specRetry   sim.Timer
	specBackoff float64

	// recovery accounting
	incompleteLocal int
	blockedSince    float64 // -1 when not accruing

	// As a source of fetches (sources.go): closed while the uplink is
	// booked past the allowance, with parkedLive queue entries parked
	// under it. srcQueue lists, in submission order, the tasks this
	// node is the first holder of, less some finished ones.
	// heldParkedLive counts the parked pending tasks, and
	// heldParkedCand lists the parked attempts, under any source,
	// whose block this node holds. localQueue entries before
	// settledHead are finished tasks.
	closed         bool
	parkedLive     int
	srcQueue       []int32
	heldParkedLive int
	heldParkedCand []*attempt
	settledHead    int
}

// simulator carries the full run state.
type simulator struct {
	cfg   Config
	eng   *sim.Engine
	net   *netsim.Network
	g     *stats.RNG
	nodes []nodeSim
	tasks []task
	// The global pending queue and its index (pending.go).
	pending   []int   // task ids in queue order from pendHead on
	pendLink  []int32 // per entry: the same task's previous entry, or -1
	pendHead  int
	open      posSet // positions whose task is pending and not parked
	fruitless fruitlessWalk
	holdsLive []uint64 // per node: fruitlessWalk.stamp of the last walk that saw it hold an open task
	// Closed sources (sources.go) and the queue entries parked under
	// them, in total.
	closedSrc     closedHeap
	parkedEntries int

	// epoch counts the changes that can turn a fruitless offer into a
	// fruitful one without the clock moving: a task entering or
	// leaving the pending queue, an attempt starting or ending, a node
	// going down or up, a NIC reservation. The fruitless-offer
	// summaries (fruitless, fruitlessSpec) hold while it stands still.
	epoch uint64

	idle      []int // candidate idle node ids (lazy checks via inIdle)
	idleSpare []int // the previous sweep's list, reused by the next
	// mustOffer and unarmed (a bit per node) mark the parked nodes a
	// sweep may not skip, and those it may skip only while the queue
	// is empty; idleMinDupCost bounds from below the dupCost of every
	// parked node. See kickIdle.
	mustOffer      []uint64
	unarmed        []uint64
	idleMinDupCost float64
	// running is every live attempt; its order (swap-remove history)
	// breaks ties between equally attractive speculation victims.
	running []*attempt
	// freeAttempts chains (through attempt.sibling) the attempts done
	// with, for startAttempt to reuse.
	freeAttempts *attempt
	cand         candHeap // speculation index over running
	// fruitlessSpec and holdsCand are to pickSpeculative what
	// fruitless and holdsLive are to popStealable.
	fruitlessSpec fruitlessPick
	holdsCand     []uint64

	remaining int
	taskGamma float64
	// transfer is one block's transfer time on an idle path, and
	// queueAllowance how far past now a fetch may have to queue
	// (+Inf when unbounded).
	transfer       float64
	queueAllowance float64
	// eta caches each node's model-expected completion time for one
	// task (availability-aware scheduling and speculation input).
	eta []float64
	// jobs is non-nil for multi-job runs (see multijob.go).
	jobs []jobState

	// accounting
	rework     float64
	recovery   float64
	migration  float64
	localDone  int
	migrations int
	interrupts int
	speculated int
	// per-attempt accounting: every attempt launched, losing sibling
	// attempts cancelled by a first finisher, and the execution
	// seconds those cancelled attempts had consumed (wasted work;
	// stays inside the misc residual of the breakdown).
	attemptsLaunched  int
	attemptsCancelled int
	wastedSeconds     float64

	err error // first scheduling error, aborts the run

	bufs arena
}

// arena holds the arrays newSimulator cuts every node's and every
// task's slices from. A simulator keeps them, with its other arrays,
// its engine and its free attempts, when it goes back to arenas.
type arena struct {
	queues    []int      // the nodes' localQueues
	srcQueues []int32    // the nodes' srcQueues
	cands     []*attempt // the nodes' heldParkedCands (reactive policy)
	holders   []int      // the tasks' holders
	counts    []int      // per node: blocks held, then blocks sourced
}

// arenas pools finished simulators. newSimulator takes one and rewrites
// it in full, re-slicing its arrays and growing one only when a larger
// run needs it; release returns it once the run's result is assembled.
var arenas = sync.Pool{New: func() any { return new(simulator) }}

// resize returns buf with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf with length n, all zero.
func zeroed[T any](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// Run simulates one map phase and returns its metrics. Deterministic
// given (cfg, g): repeated calls with equal seeds yield identical
// results.
func Run(cfg Config, g *stats.RNG) (metrics.RunResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return metrics.RunResult{}, err
	}
	if g == nil {
		return metrics.RunResult{}, ErrNilRNG
	}
	s, err := newSimulator(cfg, g)
	if err != nil {
		return metrics.RunResult{}, err
	}
	defer s.release()
	return s.run()
}

// newSimulator takes a simulator from arenas and sets it up for cfg,
// as fresh as a new one: the struct is rewritten in full, every reused
// array is cleared or overwritten in full, and only the free attempts
// carry over.
func newSimulator(cfg Config, g *stats.RNG) (*simulator, error) {
	n := cfg.Cluster.Len()
	m := cfg.Assignment.BlockCount()
	net, err := netsim.New(cfg.Network, n)
	if err != nil {
		return nil, err
	}
	s := arenas.Get().(*simulator)
	eng := s.eng
	if eng == nil {
		eng = sim.NewEngine()
	}
	// Runaway guard, generous: every task may fail many times and
	// every node may see many interruptions before the limit trips.
	eng.Limit = uint64(200*m + 2000*n + 1_000_000)
	// Every task journals at least a start and a completion. An empty
	// journal reserves twice that plus sixteen events per node, which
	// a trace-driven 3072-host run stays well within; a volatile
	// emulation run outgrows it only a few times.
	if j := cfg.Journal; j != nil && len(j.Events) == 0 {
		j.Events = slices.Grow(j.Events, 4*m+16*n)
	}

	words := (n + 63) / 64
	*s = simulator{
		cfg:       cfg,
		eng:       eng,
		net:       net,
		g:         g,
		nodes:     zeroed(s.nodes, n),
		tasks:     zeroed(s.tasks, m),
		pending:   resize(s.pending, m)[:0],
		pendLink:  resize(s.pendLink, m)[:0],
		open:      s.open,
		holdsLive: zeroed(s.holdsLive, n),
		holdsCand: zeroed(s.holdsCand, n),
		mustOffer: zeroed(s.mustOffer, words),
		unarmed:   zeroed(s.unarmed, words),
		closedSrc: closedHeap{s: s, nodes: s.closedSrc.nodes[:0]},
		idle:      s.idle[:0],
		idleSpare: s.idleSpare[:0],
		running:   s.running[:0],
		cand:      candHeap{items: s.cand.items[:0], walk: s.cand.walk[:0]},
		epoch:     1,

		freeAttempts: s.freeAttempts,

		idleMinDupCost: math.Inf(1),
		remaining:      m,
		taskGamma:      cfg.TaskGamma(),
		transfer:       net.TransferTime(cfg.BlockBytes),
		eta:            resize(s.eta, n),
		bufs:           s.bufs,
	}
	s.open.reset()
	s.queueAllowance = math.Inf(1)
	if cfg.TransferQueueFactor >= 0 {
		s.queueAllowance = cfg.TransferQueueFactor * s.transfer
	}

	for i := 0; i < n; i++ {
		node := cfg.Cluster.Node(cluster.NodeID(i))
		ns := &s.nodes[i]
		ns.s = s
		ns.id = i
		ns.up = true
		ns.rate = node.ComputeRate
		if ns.rate <= 0 {
			ns.rate = 1
		}
		ns.blockedSince = -1
		ns.avail = node.Availability
		if node.Trace != nil {
			ns.traceEv = node.Trace.Events
		} else if !node.Availability.Dedicated() {
			// Unstable processes (λμ >= 1) are permitted here: the
			// simulation dynamics stay well-defined (the host is
			// simply down most of the time) even though E[T]
			// diverges — these are exactly the hosts availability-
			// aware placement must route around.
			a := node.Availability
			if a.Lambda < 0 || a.Mu < 0 || math.IsNaN(a.Lambda) || math.IsNaN(a.Mu) {
				s.release()
				return nil, fmt.Errorf("hadoopsim: node %d: %w", i, model.ErrNegativeParam)
			}
			ns.lambda = node.Availability.Lambda
			svc, err := cfg.Service(node.Availability)
			if err != nil {
				s.release()
				return nil, fmt.Errorf("hadoopsim: node %d service: %w", i, err)
			}
			ns.service = svc
		}
		s.eta[i] = node.Availability.ExpectedTaskTime(s.taskGamma / ns.rate)
	}

	replicas := 0
	counts := zeroed(s.bufs.counts, 2*n)
	held := counts[:n]    // per node: the tasks it holds a block of
	sourced := counts[n:] // per node: the tasks it is the first holder of
	for _, holders := range cfg.Assignment.Replicas {
		replicas += len(holders)
		for _, h := range holders {
			held[h]++
		}
		sourced[holders[0]]++
	}
	// One backing array for every node's local queue, one for every
	// node's source queue, and one for every task's holders: submit
	// never grows a slice. Under the reactive policy, the only one that
	// parks candidates, a node's parked candidates start with room for
	// one per block it holds.
	queues := resize(s.bufs.queues, replicas)
	srcQueues := resize(s.bufs.srcQueues, m)
	var cands []*attempt
	if cfg.Speculation == SpeculationReactive {
		cands = resize(s.bufs.cands, replicas)
		s.bufs.cands = cands
	}
	allHolders := resize(s.bufs.holders, replicas)[:0]
	s.bufs.queues, s.bufs.srcQueues, s.bufs.holders, s.bufs.counts = queues, srcQueues, allHolders, counts
	for i := range s.nodes {
		s.nodes[i].localQueue = queues[:0:held[i]]
		queues = queues[held[i]:]
		s.nodes[i].srcQueue = srcQueues[:0:sourced[i]]
		srcQueues = srcQueues[sourced[i]:]
		if cands != nil {
			s.nodes[i].heldParkedCand = cands[:0:held[i]]
			cands = cands[held[i]:]
		}
	}
	for b := 0; b < m; b++ {
		t := &s.tasks[b]
		t.id = b
		t.state = taskPending
		t.qhead = -1
		first := len(allHolders)
		for _, h := range cfg.Assignment.Replicas[b] {
			allHolders = append(allHolders, int(h))
		}
		t.holders = allHolders[first:len(allHolders):len(allHolders)]
	}
	return s, nil
}

// release returns s to arenas once its result is assembled, or its
// set-up or run has failed. It first drops what s references outside
// itself — the Config, with its cluster, assignment, journal and
// callbacks, the nodes' traces and service distributions, the RNG and
// the network — and the old run's attempts and tasks: the engine's
// pending timers, the running attempts and the free attempts' tasks.
func (s *simulator) release() {
	s.eng.Reset()
	clear(s.nodes)
	clear(s.running)
	for a := s.freeAttempts; a != nil; a = a.sibling {
		a.task = nil
	}
	s.cfg, s.g, s.net, s.jobs = Config{}, nil, nil, nil
	arenas.Put(s)
}

// submit makes tasks [first, first+n) schedulable: each joins its
// holders' local queues and the global pending queue.
func (s *simulator) submit(first, n int) {
	for b := first; b < first+n; b++ {
		t := &s.tasks[b]
		for _, h := range t.holders {
			s.nodes[h].localQueue = append(s.nodes[h].localQueue, b)
			s.nodes[h].incompleteLocal++
			s.offerNext(h)
		}
		src := &s.nodes[t.holders[0]]
		src.srcQueue = append(src.srcQueue, int32(b))
		s.enqueue(t)
		s.showEntries(t)
	}
}

// arm (re-)arms tm to fire h at instant at, or now if that has
// passed, latching the first error.
func (s *simulator) arm(tm *sim.Timer, at float64, h sim.Handler) {
	if s.err != nil {
		return
	}
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
	if err := s.eng.Arm(tm, at, h); err != nil {
		s.err = err
	}
}

// The node timers' handlers, one type per timer over the same node.
type (
	arrivalFire   nodeSim
	recoveryFire  nodeSim
	retryFire     nodeSim
	specRetryFire nodeSim
)

func (f *arrivalFire) Fire() {
	ns := (*nodeSim)(f)
	s := ns.s
	if ns.traceEv != nil {
		s.onInterruption(ns.id, ns.arrivalDur)
		return
	}
	var d float64
	if ns.service != nil {
		d = ns.service.Sample(s.g)
	}
	s.onInterruption(ns.id, d)
	s.armNextInterruption(ns.id)
}

func (f *recoveryFire) Fire() { f.s.onRecovery(f.id) }

// Every fetch path was congested; try again now that a NIC is free.
func (f *retryFire) Fire() {
	f.s.offerNext(f.id)
	f.s.tryAssign(f.id)
}

func (f *specRetryFire) Fire() { f.s.tryAssign(f.id) }

// Fire completes the attempt.
func (a *attempt) Fire() { a.s.onAttemptComplete(a) }

func (s *simulator) run() (metrics.RunResult, error) {
	s.start()
	return s.drive()
}

// start submits every task, arms the interruption processes and
// makes the initial dispatch: every node grabs work.
func (s *simulator) start() {
	s.submit(0, len(s.tasks))
	for i := range s.nodes {
		s.armNextInterruption(i)
	}
	for i := range s.nodes {
		s.tryAssign(i)
	}
}

// drive executes events until every task completes, then assembles
// the run metrics.
func (s *simulator) drive() (metrics.RunResult, error) {
	for s.remaining > 0 && s.err == nil {
		ok, err := s.eng.Step()
		if err != nil {
			return metrics.RunResult{}, fmt.Errorf("hadoopsim: %w", err)
		}
		if !ok {
			return metrics.RunResult{}, fmt.Errorf(
				"hadoopsim: simulation stalled with %d tasks remaining", s.remaining)
		}
	}
	if s.err != nil {
		return metrics.RunResult{}, s.err
	}

	elapsed := s.eng.Now()
	// Close open recovery-accrual intervals.
	for i := range s.nodes {
		ns := &s.nodes[i]
		if ns.blockedSince >= 0 {
			s.recovery += elapsed - ns.blockedSince
			ns.blockedSince = -1
		}
	}

	m := len(s.tasks)
	base := float64(m) * s.taskGamma
	aggregate := float64(len(s.nodes)) * elapsed
	misc := aggregate - base - s.rework - s.recovery - s.migration
	if misc < 0 {
		misc = 0
	}
	return metrics.RunResult{
		Elapsed:    elapsed,
		LocalTasks: s.localDone,
		TotalTasks: m,
		Breakdown: metrics.Breakdown{
			Base:      base,
			Rework:    s.rework,
			Recovery:  s.recovery,
			Migration: s.migration,
			Misc:      misc,
		},
		MigratedBlocks:    s.migrations,
		Interruptions:     s.interrupts,
		SpeculativeTasks:  s.speculated,
		AttemptsLaunched:  s.attemptsLaunched,
		AttemptsCancelled: s.attemptsCancelled,
		WastedSeconds:     s.wastedSeconds,
	}, nil
}

// --- interruption machinery -------------------------------------------------

// armNextInterruption schedules the node's next interruption arrival.
func (s *simulator) armNextInterruption(i int) {
	ns := &s.nodes[i]
	switch {
	case ns.traceEv != nil:
		if ns.traceIdx >= len(ns.traceEv) {
			return
		}
		ev := ns.traceEv[ns.traceIdx]
		ns.traceIdx++
		ns.arrivalDur = ev.Duration
		s.arm(&ns.arrival, ev.Start, (*arrivalFire)(ns))
	case ns.lambda > 0:
		delay := s.g.ExpFloat64() / ns.lambda
		s.arm(&ns.arrival, s.eng.Now()+delay, (*arrivalFire)(ns))
	}
}

// onInterruption handles one interruption arrival with service time d.
// Arrivals during an outage queue FCFS, extending the downtime
// (§III-A).
func (s *simulator) onInterruption(i int, d float64) {
	now := s.eng.Now()
	s.interrupts++
	if s.cfg.Journal != nil {
		s.cfg.Journal.record(now, EventInterruption, i, -1)
	}
	ns := &s.nodes[i]
	if ns.traceEv != nil {
		// Chain the next trace event.
		s.armNextInterruption(i)
	}
	if !ns.up {
		ns.downUntil += d
		s.arm(&ns.recovery, ns.downUntil, (*recoveryFire)(ns))
		return
	}
	ns.up = false
	s.epoch++
	s.offerNext(i)
	s.reopenDown(i)
	ns.downUntil = now + d
	if ns.running != nil {
		s.abortAttempt(ns.running)
	}
	if ns.incompleteLocal > 0 {
		ns.blockedSince = now
	}
	s.arm(&ns.recovery, ns.downUntil, (*recoveryFire)(ns))
}

func (s *simulator) onRecovery(i int) {
	ns := &s.nodes[i]
	now := s.eng.Now()
	if now < ns.downUntil {
		// Superseded by a queued extension.
		return
	}
	ns.up = true
	s.epoch++
	if s.cfg.Journal != nil {
		s.cfg.Journal.record(now, EventRecovery, i, -1)
	}
	if ns.blockedSince >= 0 {
		s.recovery += now - ns.blockedSince
		ns.blockedSince = -1
	}
	s.tryAssign(i)
	// Blocks on this node are reachable again: idle nodes may now be
	// able to steal previously-unfetchable tasks.
	s.kickIdle()
}

// --- attempt lifecycle ------------------------------------------------------

// abortAttempt cancels a running attempt (node went down). Work since
// execStart is rework; a partial migration is charged for the time
// actually spent transferring.
func (s *simulator) abortAttempt(a *attempt) {
	now := s.eng.Now()
	a.timer.Cancel()
	s.chargeMigration(a, now)
	if now > a.execStart {
		s.rework += now - a.execStart
	}
	if s.cfg.Journal != nil {
		s.cfg.Journal.record(now, EventTaskAbort, a.node, a.task.id)
	}
	ns := &s.nodes[a.node]
	if ns.running == a {
		ns.running = nil
	}
	s.removeRunning(a)
	t := a.task
	s.freeAttempt(a)
	t.everAborted = true
	if t.activeAttempts == 0 && t.state == taskRunning {
		t.state = taskPending
		s.enqueue(t)
		s.showEntries(t)
		s.kickForTask(t)
	}
}

// chargeMigration accounts the transfer time consumed by an attempt up
// to instant end (completion or abort).
func (s *simulator) chargeMigration(a *attempt, end float64) {
	if !a.migrated {
		return
	}
	if !a.failureInduced {
		a.migrated = false // transfer time stays in the misc residual
		return
	}
	hi := a.transferEnd
	if end < hi {
		hi = end
	}
	if hi > a.transferStart {
		s.migration += hi - a.transferStart
	}
	a.migrated = false // charge once
}

// onAttemptComplete fires when an attempt's execution finishes.
func (s *simulator) onAttemptComplete(a *attempt) {
	now := s.eng.Now()
	t := a.task
	// Deterministic first-finisher: when sibling attempts land at the
	// exact same instant, the lowest node id wins regardless of which
	// timer the event queue happened to fire first — the winner is a
	// function of the seed, never of insertion order.
	a = tieWinner(a, now)
	a.timer.Cancel()
	ns := &s.nodes[a.node]
	s.chargeMigration(a, now)
	ns.running = nil
	t.state = taskDone
	s.removeRunning(a)
	s.remaining--

	if s.cfg.Journal != nil {
		s.cfg.Journal.record(now, EventTaskComplete, a.node, t.id)
	}
	if contains(t.holders, a.node) {
		s.localDone++
		if s.jobs != nil {
			s.jobs[t.job].localDone++
		}
	}
	if s.jobs != nil {
		js := &s.jobs[t.job]
		js.remaining--
		if js.remaining == 0 {
			js.finished = now
		}
	}
	if s.cfg.OnTaskComplete != nil {
		s.cfg.OnTaskComplete(t.id, cluster.NodeID(a.node))
	}

	// Cancel the losing sibling attempts, if any (first finisher
	// wins). Their spent execution time remains in the misc residual
	// (duplicated straggler cost, §V-C) and is reported separately as
	// wasted work. Siblings go in the order of the running list; each
	// cancellation frees a node, which may start an attempt and
	// reorder that list, so the next one is looked up afresh.
	for t.activeAttempts > 0 {
		other := firstRunning(t)
		other.timer.Cancel()
		s.chargeMigration(other, now)
		s.attemptsCancelled++
		if now > other.execStart {
			s.wastedSeconds += now - other.execStart
		}
		if s.cfg.Journal != nil {
			s.cfg.Journal.record(now, EventTaskCancel, other.node, t.id)
		}
		on := &s.nodes[other.node]
		if on.running == other {
			on.running = nil
		}
		s.removeRunning(other)
		node := other.node
		s.freeAttempt(other)
		s.tryAssign(node)
	}

	// Free the holders' recovery clocks.
	for _, h := range t.holders {
		hn := &s.nodes[h]
		hn.incompleteLocal--
		if hn.incompleteLocal == 0 && hn.blockedSince >= 0 {
			s.recovery += now - hn.blockedSince
			hn.blockedSince = -1
		}
	}

	node := a.node
	s.freeAttempt(a)
	if s.remaining > 0 {
		s.tryAssign(node)
	}
}

// tieWinner resolves a first-finisher tie: among a and the siblings
// planned to end at the same instant, the one on the lowest node.
func tieWinner(a *attempt, now float64) *attempt {
	for b := a.task.attempts; b != nil; b = b.sibling {
		//lint:ignore floateq exact tie detection between copied event times, not arithmetic results
		if b.plannedEnd == now && b.node < a.node {
			a = b
		}
	}
	return a
}

// firstRunning returns t's live attempt earliest in the running list.
func firstRunning(t *task) *attempt {
	first := t.attempts
	for b := first.sibling; b != nil; b = b.sibling {
		if b.runIdx < first.runIdx {
			first = b
		}
	}
	return first
}

// removeRunning takes a finished, aborted or cancelled attempt out of
// the running list, its task's attempt chain and the speculation
// index.
func (s *simulator) removeRunning(a *attempt) {
	last := len(s.running) - 1
	s.running[a.runIdx] = s.running[last]
	s.running[a.runIdx].runIdx = a.runIdx
	s.running[last] = nil
	s.running = s.running[:last]
	a.runIdx = -1

	t := a.task
	s.unfileAttempts(t)
	link := &t.attempts
	for *link != a {
		link = &(*link).sibling
	}
	*link = a.sibling
	a.sibling = nil
	t.activeAttempts--
	if t.state == taskRunning {
		s.fileAttempts(t)
	}
}

// --- scheduling --------------------------------------------------------------

// tryAssign gives the node work if it is up and idle: local task
// first (data locality, §II-B), then a steal with migration, then a
// speculative duplicate.
func (s *simulator) tryAssign(i int) {
	ns := &s.nodes[i]
	if !ns.up || ns.running != nil || s.remaining == 0 || s.err != nil {
		return
	}
	s.reopenDue(s.eng.Now())
	// 1. Local pending task.
	for ns.localHead < len(ns.localQueue) {
		tid := ns.localQueue[ns.localHead]
		ns.localHead++
		t := &s.tasks[tid]
		if t.state == taskPending {
			s.startAttempt(i, t, true, false)
			return
		}
	}
	// 2. Steal from the global pending pool (straggler reallocation).
	tid, ok, retryAt := s.popStealable(i)
	if ok {
		t := &s.tasks[tid]
		local := contains(t.holders, i)
		s.startAttempt(i, t, local, false)
		return
	}
	if !math.IsInf(retryAt, 1) && !ns.retry.Active() {
		// Every fetch path is congested right now; try again when the
		// earliest NIC frees up.
		s.arm(&ns.retry, retryAt, (*retryFire)(ns))
	}
	// 3. Duplicate execution per the speculation policy.
	switch s.cfg.Speculation {
	case SpeculationNone:
		// No duplicates, ever.
	case SpeculationPredictive:
		victim, wake := s.pickPredictive(i)
		if victim != nil {
			s.startAttempt(i, victim.task, contains(victim.task.holders, i), true)
			if ns.running != nil {
				return
			}
			// Placement failed (e.g. replica raced unreachable):
			// degrade gracefully and retry after backoff.
			wake = s.eng.Now() + s.specBackoffDelay(i)
		}
		s.armSpecRetry(i, wake)
	case SpeculationRedundant:
		victim, wake := s.pickRedundant(i)
		if victim != nil {
			s.startAttempt(i, victim.task, contains(victim.task.holders, i), true)
			if ns.running != nil {
				return
			}
			wake = s.eng.Now() + s.specBackoffDelay(i)
		}
		s.armSpecRetry(i, wake)
	default:
		// SpeculationReactive: duplicate the running task with the
		// worst model-expected completion time (LATE-style).
		if victim := s.pickSpeculative(i); victim != nil {
			s.startAttempt(i, victim.task, contains(victim.task.holders, i), true)
			if ns.running != nil {
				return
			}
			// The duplicate could not start (e.g. no reachable
			// replica); fall through to parking.
		}
	}
	// Nothing to do: park as idle. The node is up, idle and out of
	// local work; unless it holds the block of something parked that
	// is or may become worth its while, the next sweep may be able to
	// skip it (kickIdle).
	if !ns.inIdle {
		ns.inIdle = true
		s.idle = append(s.idle, i)
	}
	dupCost := s.transfer + s.eta[i]
	if dupCost < s.idleMinDupCost {
		s.idleMinDupCost = dupCost
	}
	word, bit := i>>6, uint64(1)<<uint(i&63)
	s.mustOffer[word] &^= bit
	s.unarmed[word] &^= bit
	if ns.heldParkedLive != 0 {
		s.mustOffer[word] |= bit
	}
	for _, a := range ns.heldParkedCand {
		if a.key > dupCost { // keys only fall: one at or below dupCost stays there
			s.mustOffer[word] |= bit
		}
	}
	if !ns.retry.Active() {
		s.unarmed[word] |= bit
	}
}

// offerNext makes the next sweep offer to node i for real: something
// an offer depends on, and a skipped offer takes for granted, changed.
func (s *simulator) offerNext(i int) { s.mustOffer[i>>6] |= 1 << uint(i&63) }

// upHolder returns an up node holding the task's block, or -1.
func (s *simulator) upHolder(t *task) int {
	for _, h := range t.holders {
		if s.nodes[h].up {
			return h
		}
	}
	return -1
}

// kickForTask offers a newly-pending task to an idle node, preferring
// its holders (locality).
func (s *simulator) kickForTask(t *task) {
	for _, h := range t.holders {
		hn := &s.nodes[h]
		if hn.up && hn.running == nil {
			s.tryAssign(h)
			if t.state != taskPending {
				return
			}
		}
	}
	s.kickIdle()
}

// kickIdle re-offers work to parked idle nodes, in list order: which
// offers succeed, which arm a retry timer and in what order the rest
// re-park are all observable.
//
// Most offers of most sweeps are to nodes for which nothing can have
// changed, and are skipped: while no queue entry is open and no
// speculation candidate can score above any parked node's dupCost
// (offersFutile), an offer to a node that is up, idle, out of local
// work and holds the block of nothing parked (or only of attempts
// that can no longer score above its dupCost) finds nothing and
// re-parks the node where it was; and it arms no retry timer if the
// node's is armed already or the queue has nothing parked either.
// tryAssign records both properties when it parks a node (mustOffer
// clear, unarmed), and every change to one of them sets mustOffer
// (offerNext). The rest get a real offer, which may change the
// conditions for the nodes after them.
func (s *simulator) kickIdle() {
	parked := s.idle
	// Nodes that stay idle re-park themselves, in the same relative
	// order; a second slice keeps the iteration below safe from those
	// appends.
	s.idle = s.idleSpare[:0]
	s.reopenDue(s.eng.Now())
	oldMin := s.idleMinDupCost
	s.idleMinDupCost = math.Inf(1) // rebuilt by the offers below
	skipped, compacted := false, false
	for _, i := range parked {
		word, bit := i>>6, uint64(1)<<uint(i&63)
		if s.mustOffer[word]&bit == 0 && (s.unarmed[word]&bit == 0 || s.parkedEntries == 0) && s.offersFutile(oldMin) {
			if !compacted {
				// The first thing the skipped offer would have done;
				// when the queue head advances is observable.
				s.compactPending()
				compacted = true
			}
			skipped = true
			s.idle = append(s.idle, i)
			continue
		}
		s.nodes[i].inIdle = false
		s.tryAssign(i)
		compacted = false
	}
	if skipped && oldMin < s.idleMinDupCost {
		s.idleMinDupCost = oldMin // the skipped nodes' dupCosts are not known more precisely
	}
	s.idleSpare = parked
}

// offersFutile reports that an offer to a parked node with nothing
// particular about it (see kickIdle) cannot succeed right now: there is
// no open queue entry, and no member of the speculation index can score
// above minDupCost, a lower bound of such a node's dupCost. Only the
// policies whose pick arms no timer of its own qualify.
func (s *simulator) offersFutile(minDupCost float64) bool {
	if s.open.count != 0 || s.remaining == 0 || s.err != nil {
		return false
	}
	switch s.cfg.Speculation {
	case SpeculationNone:
		return true
	case SpeculationReactive:
		return len(s.cand.items) == 0 || s.cand.items[0].key <= minDupCost
	}
	return false
}

// startAttempt launches task t on node i. When the execution is not
// local the block is fetched from an up holder over the network, or
// re-ingested from the original source at a penalty when every holder
// is down.
func (s *simulator) startAttempt(i int, t *task, local, speculative bool) {
	now := s.eng.Now()
	ns := &s.nodes[i]
	start, end := now, now

	src := -1
	if !local {
		src = s.upHolder(t)
		if src >= 0 {
			var err error
			start, end, err = s.net.Transfer(now, src, i, s.cfg.BlockBytes)
			if err != nil {
				s.err = err
				return
			}
		} else {
			// Source re-ingest (no live replica).
			penalty := s.cfg.SourcePenalty
			if penalty < 0 {
				return // caller should not have picked this task
			}
			end = now + s.net.TransferTime(s.cfg.BlockBytes)*penalty
		}
		s.migrations++
	}

	a := s.freeAttempts
	if a != nil {
		s.freeAttempts = a.sibling
	} else {
		a = new(attempt)
	}
	*a = attempt{
		s: s, task: t, node: i, transferStart: start, transferEnd: end,
		migrated: !local,
		// Fetches forced by volatility — a task that already lost an
		// attempt, or a block whose holders are all down — charge the
		// paper's migration component; voluntary load-balancing steals
		// are scheduling cost and stay in the misc residual.
		failureInduced: !local && (t.everAborted || src < 0),
		execStart:      end,
		plannedEnd:     end + s.taskGamma/ns.rate,
		runIdx:         -1,
		heapIdx:        -1,
	}
	a.key = s.candidateKey(a, now)
	s.arm(&a.timer, a.plannedEnd, a)

	if s.cfg.Journal != nil {
		s.cfg.Journal.record(now, EventTaskStart, i, t.id)
		if a.migrated {
			s.cfg.Journal.record(now, EventMigration, i, t.id)
		}
		if speculative {
			s.cfg.Journal.record(now, EventSpeculate, i, t.id)
		}
	}
	if t.activeAttempts == 0 {
		// First attempt of this running episode: anchor the redundant
		// policy's stagger clock at the execution start.
		t.firstExec = a.execStart
	}
	s.unfile(t)
	t.state = taskRunning
	t.activeAttempts++
	a.sibling = t.attempts
	t.attempts = a
	s.attemptsLaunched++
	ns.specBackoff = 0
	if speculative {
		t.hasDuplicate = true
		s.speculated++
	}
	ns.running = a
	s.offerNext(i)
	a.runIdx = len(s.running)
	s.running = append(s.running, a)
	s.file(t)
	s.epoch++ // a candidate more, and NIC cursors may have moved
	if src >= 0 {
		s.closeIfBooked(src, now)
	}
}

// freeAttempt recycles a, which nothing references any more.
func (s *simulator) freeAttempt(a *attempt) {
	a.sibling = s.freeAttempts
	s.freeAttempts = a
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
