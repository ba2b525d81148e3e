package cluster

import (
	"fmt"
	"sync"

	"github.com/adaptsim/adapt/internal/model"
)

// HeartbeatEstimator reproduces the ADAPT NameNode's lightweight
// availability bookkeeping (§IV-B1): it does not retain heartbeat
// history, only per-node sums of observed uptime, observed downtime
// and the number of outages, from which it derives (λ, μ).
//
// An interruption is one observed outage: a heartbeat miss followed
// by a rejoin. A heartbeat collector cannot see interruptions that
// arrive while a node is already down; it sees the busy periods of
// the paper's M/G/1 interruption queue. So the estimate inverts the
// busy period: an outage can only begin while the node is up, so
// λ̂ = n/U, and the fraction of time spent down tends to ρ = λμ, so
// μ̂ = (D/(U+D))/λ̂, where U is observed uptime, D observed downtime
// and n the number of outages.
//
// The estimator is safe for concurrent use; the real NameNode receives
// heartbeats from many DataNodes at once.
type HeartbeatEstimator struct {
	mu    sync.Mutex
	nodes map[NodeID]*nodeStats
}

type nodeStats struct {
	uptime        float64 // observed up seconds
	downtime      float64 // observed down seconds
	interruptions int64   // observed outages
}

// NewHeartbeatEstimator returns an empty estimator.
func NewHeartbeatEstimator() *HeartbeatEstimator {
	return &HeartbeatEstimator{nodes: make(map[NodeID]*nodeStats)}
}

// ObserveUptime records that a node was observed up (heartbeating) for
// d additional seconds. Negative durations are rejected.
func (h *HeartbeatEstimator) ObserveUptime(id NodeID, d float64) error {
	if d < 0 {
		return fmt.Errorf("cluster: negative observation window %g", d)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats(id).uptime += d
	return nil
}

// ObserveInterruption records one outage with the given downtime (the
// gap between the last heartbeat and the rejoin).
func (h *HeartbeatEstimator) ObserveInterruption(id NodeID, downtime float64) error {
	if downtime < 0 {
		return fmt.Errorf("cluster: negative downtime %g", downtime)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats(id)
	s.interruptions++
	s.downtime += downtime
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
// window (up + down seconds) and the number of outages recorded. The
// NameNode exports the count on /metrics, so an operator can see why
// a node's λ̂ is above zero.
func (h *HeartbeatEstimator) Observed(id NodeID) (seconds float64, interruptions int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.nodes[id]
	if !ok {
		return 0, 0
	}
	return s.uptime + s.downtime, s.interruptions
}

// Estimate returns the current (λ, μ) estimate for a node. A node
// never observed, observed with no outages, or never observed up
// estimates as dedicated.
//
//lint:ignore deadcode accessor for unexported state: dfs's and svc's heartbeat tests read one node's estimate; ROADMAP item 25's NewFromTraces will call it
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
	if s.interruptions == 0 || s.uptime <= 0 {
		return model.Availability{}
	}
	lambda := float64(s.interruptions) / s.uptime
	return model.Availability{
		Lambda: lambda,
		Mu:     s.downtime / (s.uptime + s.downtime) / lambda,
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
