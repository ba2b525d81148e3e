// Package chaos is a deterministic, seeded fault-injection engine for
// the DFS substrate: it drives DataNode up/down churn from each node's
// M/G/1 availability parameters (λ, μ — paper §II, eqs. 2–5) or from a
// replayed interruption trace, and injects operation-level faults
// (transient Put/Get errors, latency, bit-flip read corruption)
// through the dfs.FaultInjector hook.
//
// The engine runs in virtual time: interruptions arrive per node as a
// Poisson process with rate λ in wall-clock time, recoveries take
// Exp(μ) service each and queue FCFS (arrivals during downtime extend
// the outage), exactly the interruption process the paper's
// availability model assumes. Every transition is pushed to a Target
// (the NameNode's liveness switch). The engine reports nothing to the
// availability estimator: a NameNode learns (λ, μ) from what it
// observes itself (its heartbeats), never from the injected truth.
//
// Everything is derived from an explicit RNG, so a seed reproduces the
// full churn schedule event-for-event.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// Target is the system under chaos: a per-node liveness switch. A
// *dfs.NameNode satisfies it via SetNodeUp.
type Target interface {
	SetNodeUp(id cluster.NodeID, up bool) error
}

// EventKind tags one engine transition.
type EventKind int

// Engine transitions.
const (
	// EventDown: an interruption arrived at an up node; it went down.
	EventDown EventKind = iota
	// EventExtend: an interruption arrived while the node was already
	// down; its recovery queue grew (the outage extended).
	EventExtend
	// EventUp: the node finished recovering and rejoined.
	EventUp
)

func (k EventKind) String() string {
	switch k {
	case EventDown:
		return "down"
	case EventExtend:
		return "extend"
	case EventUp:
		return "up"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one applied transition.
type Event struct {
	Time float64 // virtual seconds since engine start
	Node cluster.NodeID
	Kind EventKind
	// Downtime is the service time drawn for EventDown/EventExtend
	// arrivals (0 for EventUp).
	Downtime float64
}

// Config describes what the engine churns.
type Config struct {
	// Cluster supplies the per-node availability parameters. Nodes
	// with a Trace replay it verbatim; nodes with parametric
	// availability get synthesized M/G/1 churn; dedicated nodes are
	// left alone.
	Cluster *cluster.Cluster
	// Target receives every liveness flip. Required.
	Target Target
}

// Errors.
var (
	ErrNoTarget  = errors.New("chaos: config needs a target")
	ErrNoCluster = errors.New("chaos: config needs a cluster")
	ErrNilRNG    = errors.New("chaos: rng must not be nil")
)

// nodeState is the per-node churn generator state.
type nodeState struct {
	id     cluster.NodeID
	lambda float64 // arrival rate; 0 = inert
	mu     float64 // mean recovery service time
	replay *trace.Trace
	next   int // next replay event index

	up          bool
	nextArrival float64 // +Inf when no more arrivals
	downUntil   float64
}

// Engine generates and applies churn. Step/Run are safe for use from
// one goroutine while the target serves concurrent traffic; the
// engine's own state is additionally mutex-guarded so inspection
// (Now) can happen from other goroutines.
type Engine struct {
	cfg Config
	g   *stats.RNG

	mu    sync.Mutex
	now   float64
	nodes []*nodeState
}

// New builds an engine over the cluster's availability patterns. The
// RNG drives every arrival and service draw; equal seeds give equal
// schedules.
func New(cfg Config, g *stats.RNG) (*Engine, error) {
	if cfg.Target == nil {
		return nil, ErrNoTarget
	}
	if cfg.Cluster == nil || cfg.Cluster.Len() == 0 {
		return nil, ErrNoCluster
	}
	if g == nil {
		return nil, ErrNilRNG
	}
	e := &Engine{cfg: cfg, g: g}
	for i := 0; i < cfg.Cluster.Len(); i++ {
		n := cfg.Cluster.Node(cluster.NodeID(i))
		st := &nodeState{
			id:          cluster.NodeID(i),
			up:          true,
			nextArrival: math.Inf(1),
		}
		switch {
		case n.Trace != nil && len(n.Trace.Events) > 0:
			st.replay = n.Trace
			st.nextArrival = n.Trace.Events[0].Start
		case !n.Availability.Dedicated():
			st.lambda = n.Availability.Lambda
			st.mu = n.Availability.Mu
			st.nextArrival = e.exp(1 / st.lambda)
		}
		e.nodes = append(e.nodes, st)
	}
	return e, nil
}

// exp draws an exponential variate with the given mean.
func (e *Engine) exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return e.g.ExpFloat64() * mean
}

// nextTransition returns a node's next transition time (+Inf if inert).
func (st *nodeState) nextTransition() float64 {
	if st.up {
		return st.nextArrival
	}
	return math.Min(st.nextArrival, st.downUntil)
}

// Step applies the next churn event. ok is false when no node has any
// event left (every node dedicated or its trace exhausted with no
// pending recovery).
func (e *Engine) Step() (ev Event, ok bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.step()
}

func (e *Engine) step() (Event, bool, error) {
	var st *nodeState
	at := math.Inf(1)
	for _, n := range e.nodes {
		if t := n.nextTransition(); t < at {
			at = t
			st = n
		}
	}
	if st == nil || math.IsInf(at, 1) {
		return Event{}, false, nil
	}
	e.now = at
	var ev Event
	switch {
	case st.up: // interruption arrival: the node goes down
		service, arrErr := e.advanceArrival(st)
		if arrErr != nil {
			return Event{}, false, arrErr
		}
		if err := e.cfg.Target.SetNodeUp(st.id, false); err != nil {
			return Event{}, false, fmt.Errorf("chaos: set node %d down: %w", st.id, err)
		}
		st.up = false
		st.downUntil = at + service
		ev = Event{Time: at, Node: st.id, Kind: EventDown, Downtime: service}

	case at < st.downUntil: // arrival during downtime: extend the outage
		service, arrErr := e.advanceArrival(st)
		if arrErr != nil {
			return Event{}, false, arrErr
		}
		st.downUntil += service
		ev = Event{Time: at, Node: st.id, Kind: EventExtend, Downtime: service}

	default: // recovery completes: the node rejoins
		if err := e.rejoin(st); err != nil {
			return Event{}, false, err
		}
		ev = Event{Time: at, Node: st.id, Kind: EventUp}
	}
	return ev, true, nil
}

// rejoin brings a down node back up.
func (e *Engine) rejoin(st *nodeState) error {
	if err := e.cfg.Target.SetNodeUp(st.id, true); err != nil {
		return fmt.Errorf("chaos: set node %d up: %w", st.id, err)
	}
	st.up = true
	return nil
}

// advanceArrival consumes the node's pending arrival, returning its
// recovery service time and scheduling the next arrival.
func (e *Engine) advanceArrival(st *nodeState) (service float64, err error) {
	if st.replay != nil {
		ev := st.replay.Events[st.next]
		service = ev.Duration
		st.next++
		if st.next < len(st.replay.Events) {
			st.nextArrival = st.replay.Events[st.next].Start
			if st.nextArrival < ev.Start {
				return 0, fmt.Errorf("chaos: trace %q not sorted at event %d", st.replay.Host, st.next)
			}
		} else {
			st.nextArrival = math.Inf(1)
		}
		return service, nil
	}
	service = e.exp(st.mu)
	st.nextArrival = e.now + e.exp(1/st.lambda)
	return service, nil
}

// Run applies up to n events, stopping early if the schedule is
// exhausted. It returns the number applied.
func (e *Engine) Run(n int) (int, error) {
	for i := 0; i < n; i++ {
		_, ok, err := e.Step()
		if err != nil {
			return i, err
		}
		if !ok {
			return i, nil
		}
	}
	return n, nil
}

// Quiesce ends the churn: every pending recovery completes (the
// virtual clock jumps past the last one) and no further interruptions
// are generated. The engine is exhausted afterwards.
func (e *Engine) Quiesce() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.nodes {
		st.nextArrival = math.Inf(1)
		if !st.up {
			if err := e.rejoin(st); err != nil {
				return fmt.Errorf("chaos: quiesce: %w", err)
			}
			if st.downUntil > e.now {
				e.now = st.downUntil
			}
		}
	}
	return nil
}

// Now returns the virtual clock in seconds.
func (e *Engine) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}
