package cluster

import (
	"fmt"
	"sync"

	"github.com/adaptsim/adapt/internal/model"
)

// HeartbeatEstimator reproduces the ADAPT NameNode's lightweight
// availability bookkeeping (§IV-B1): it does not retain heartbeat
// history, only a two-double running estimate of (λ, μ) per node,
// updated as interruptions are observed (heartbeat misses followed by
// rejoins).
//
// The estimator is safe for concurrent use; the real NameNode receives
// heartbeats from many DataNodes at once.
type HeartbeatEstimator struct {
	mu    sync.Mutex
	nodes map[NodeID]*nodeStats
}

type nodeStats struct {
	observedFor   float64 // total observation seconds
	interruptions int64
	totalDowntime float64
}

// NewHeartbeatEstimator returns an empty estimator.
func NewHeartbeatEstimator() *HeartbeatEstimator {
	return &HeartbeatEstimator{nodes: make(map[NodeID]*nodeStats)}
}

// ObserveUptime records that a node was observed (heartbeating) for d
// additional seconds. Negative durations are rejected.
func (h *HeartbeatEstimator) ObserveUptime(id NodeID, d float64) error {
	if d < 0 {
		return fmt.Errorf("cluster: negative observation window %g", d)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats(id).observedFor += d
	return nil
}

// ObserveInterruption records one interruption with the given downtime
// (the gap between the last heartbeat and the rejoin).
func (h *HeartbeatEstimator) ObserveInterruption(id NodeID, downtime float64) error {
	if downtime < 0 {
		return fmt.Errorf("cluster: negative downtime %g", downtime)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats(id)
	s.interruptions++
	s.totalDowntime += downtime
	s.observedFor += downtime
	return nil
}

// ObserveBatch folds one networked heartbeat's worth of observations
// in a single step: uptime seconds of heartbeating, plus
// interruptions rejoins whose downtimes sum to downtime seconds. It
// is equivalent to one ObserveUptime(uptime) followed by the
// individual ObserveInterruption calls — the estimator only keeps
// sums, so per-interruption detail is not needed on the wire.
func (h *HeartbeatEstimator) ObserveBatch(id NodeID, uptime float64, interruptions int64, downtime float64) error {
	if uptime < 0 {
		return fmt.Errorf("cluster: negative observation window %g", uptime)
	}
	if interruptions < 0 {
		return fmt.Errorf("cluster: negative interruption count %d", interruptions)
	}
	if downtime < 0 {
		return fmt.Errorf("cluster: negative downtime %g", downtime)
	}
	if downtime > 0 && interruptions == 0 {
		return fmt.Errorf("cluster: downtime %g with zero interruptions", downtime)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats(id)
	s.observedFor += uptime + downtime
	s.interruptions += interruptions
	s.totalDowntime += downtime
	return nil
}

// stats returns (creating if needed) a node's bookkeeping.
func (h *HeartbeatEstimator) stats(id NodeID) *nodeStats {
	s, ok := h.nodes[id]
	if !ok {
		s = &nodeStats{}
		h.nodes[id] = s
	}
	return s
}

// Observed returns the raw bookkeeping for a node: total observation
// window (up + down seconds) and the number of interruptions recorded.
// Chaos soak tests use it to confirm injected churn was fully
// observed.
//
//lint:ignore deadcode accessor for unexported state: soaks confirm every beat and interruption was folded
func (h *HeartbeatEstimator) Observed(id NodeID) (seconds float64, interruptions int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.nodes[id]
	if !ok {
		return 0, 0
	}
	return s.observedFor, s.interruptions
}

// Estimate returns the current (λ, μ) estimate for a node. A node
// never observed, or observed with no interruptions, estimates as
// dedicated.
func (h *HeartbeatEstimator) Estimate(id NodeID) model.Availability {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.nodes[id]
	if !ok {
		return model.Availability{}
	}
	return s.estimate()
}

func (s *nodeStats) estimate() model.Availability {
	if s.interruptions == 0 || s.observedFor <= 0 {
		return model.Availability{}
	}
	return model.Availability{
		Lambda: float64(s.interruptions) / s.observedFor,
		Mu:     s.totalDowntime / float64(s.interruptions),
	}
}

// Snapshot returns estimates for all observed nodes.
func (h *HeartbeatEstimator) Snapshot() map[NodeID]model.Availability {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[NodeID]model.Availability, len(h.nodes))
	for id, s := range h.nodes {
		out[id] = s.estimate()
	}
	return out
}

// Apply returns a copy of c in which every node the estimator has
// observed carries its current estimate; the other nodes keep c's
// values, as do ids the cluster does not know. c itself is never
// written, so a Cluster stays immutable and a reader holding c keeps
// the availability it loaded. The estimates are read under one
// acquisition of the estimator's lock, so the copy is one consistent
// cut of the per-node sums.
func (h *HeartbeatEstimator) Apply(c *Cluster) *Cluster {
	nodes := c.Nodes()
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, s := range h.nodes {
		if int(id) >= 0 && int(id) < len(nodes) {
			nodes[id].Availability = s.estimate()
		}
	}
	return &Cluster{nodes: nodes}
}
