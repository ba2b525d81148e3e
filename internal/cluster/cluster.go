// Package cluster models the population of participating hosts in a
// non-dedicated distributed computing system: each node contributes
// both CPU and storage (the paper's §I observation), and carries an
// availability pattern (λ, μ) that the ADAPT placement algorithm and
// the simulators consume.
//
// Builders cover the paper's two evaluation substrates: the emulated
// Magellan cluster (Table 2 interruption groups, a configurable
// interrupted-node ratio) and trace-driven large-scale populations.
package cluster

import (
	"errors"
	"fmt"

	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// NodeID identifies a node by dense index within its cluster.
type NodeID int

// Node is one participating host.
type Node struct {
	ID   NodeID
	Name string
	// Availability is the host's interruption behaviour (λ, μ). The
	// zero value means a dedicated, never-interrupted host.
	Availability model.Availability
	// ComputeRate scales task execution speed; 1.0 is the reference
	// rate (a task of length γ takes γ/ComputeRate seconds of up
	// time). The paper assumes homogeneous compute (§I: computing
	// power heterogeneity has limited impact on data-intensive jobs)
	// but the field supports the heterogeneous-compute extension.
	ComputeRate float64
	// CapacityBlocks bounds how many blocks the node may store;
	// 0 means unbounded (policies still apply the paper's m(k+1)/n
	// threshold).
	CapacityBlocks int
	// Group tags the node with its availability group (Table 2);
	// -1 means "reliable" (not interrupted).
	Group int
	// Trace optionally pins the node to a replayed interruption
	// trace; when nil the simulators synthesize interruptions from
	// Availability.
	Trace *trace.Trace
}

// Interrupted reports whether the node has a non-trivial availability
// pattern (either parametric or trace-driven).
func (n *Node) Interrupted() bool {
	if n.Trace != nil {
		return len(n.Trace.Events) > 0
	}
	return !n.Availability.Dedicated()
}

// Cluster is an immutable collection of nodes. New availability is a
// new Cluster (HeartbeatEstimator.Apply), never a write into one, so a
// *Cluster can be shared across goroutines without a lock.
type Cluster struct {
	nodes []Node
}

// Errors returned by cluster constructors.
var (
	ErrNoNodes  = errors.New("cluster: need at least one node")
	ErrBadRatio = errors.New("cluster: interrupted ratio must be in [0, 1]")
	ErrNoGroups = errors.New("cluster: need at least one availability group")
)

// New builds a cluster from a node slice; IDs are reassigned densely
// in order. The slice is copied.
func New(nodes []Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	out := make([]Node, len(nodes))
	copy(out, nodes)
	for i := range out {
		out[i].ID = NodeID(i)
		if out[i].Name == "" {
			out[i].Name = fmt.Sprintf("node-%d", i)
		}
		if out[i].ComputeRate == 0 {
			out[i].ComputeRate = 1
		}
	}
	return &Cluster{nodes: out}, nil
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns the node with the given id. The pointer is read-only:
// it points into a snapshot other goroutines share, so the caller must
// not write through it. It panics on out-of-range ids, which indicate
// a programming error (ids are dense).
func (c *Cluster) Node(id NodeID) *Node { return &c.nodes[id] }

// Nodes returns a copy of the node slice.
func (c *Cluster) Nodes() []Node {
	out := make([]Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Availabilities returns the per-node availability parameters in node
// order — the input the performance predictor consumes.
func (c *Cluster) Availabilities() []model.Availability {
	out := make([]model.Availability, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.nodes[i].Availability
	}
	return out
}

// InterruptedCount returns the number of nodes with non-trivial
// availability patterns.
func (c *Cluster) InterruptedCount() int {
	n := 0
	for i := range c.nodes {
		if c.nodes[i].Interrupted() {
			n++
		}
	}
	return n
}

// Efficiencies returns 1/E[T_i] for every node at task length gamma —
// the ADAPT placement weights.
func (c *Cluster) Efficiencies(gamma float64) []float64 {
	out := make([]float64, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.nodes[i].Availability.Efficiency(gamma)
	}
	return out
}

// Group is one availability class of the emulation setup: nodes in
// the group share an MTBI and a mean interruption service time
// (paper Table 2).
type Group struct {
	MTBI    float64 // seconds
	Service float64 // mean recovery seconds
}

// Table2Groups returns the paper's four emulation groups:
// (MTBI, service) = (10,4), (10,8), (20,4), (20,8) seconds.
func Table2Groups() []Group {
	return []Group{
		{MTBI: 10, Service: 4},
		{MTBI: 10, Service: 8},
		{MTBI: 20, Service: 4},
		{MTBI: 20, Service: 8},
	}
}

// EmulationConfig describes the paper's emulated non-dedicated
// environment (§V-A): n nodes of which a fixed ratio is interrupted,
// the interrupted ones divided evenly among the availability groups.
type EmulationConfig struct {
	Nodes            int
	InterruptedRatio float64 // e.g. 0.5 (paper default, Table 3)
	Groups           []Group // defaults to Table2Groups()
	// Shuffle randomizes which node indices are interrupted (the
	// paper's emulation interleaves them). When false, the first
	// Nodes*Ratio nodes are the interrupted ones — convenient for
	// tests.
	Shuffle bool
}

// NewEmulation builds the emulated cluster. Deterministic given the
// config and RNG seed.
func NewEmulation(cfg EmulationConfig, g *stats.RNG) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, ErrNoNodes
	}
	if cfg.InterruptedRatio < 0 || cfg.InterruptedRatio > 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadRatio, cfg.InterruptedRatio)
	}
	groups := cfg.Groups
	if len(groups) == 0 {
		groups = Table2Groups()
	}
	if len(groups) == 0 {
		return nil, ErrNoGroups
	}
	for i, gr := range groups {
		if gr.MTBI <= 0 || gr.Service < 0 {
			return nil, fmt.Errorf("cluster: group %d invalid: %+v", i, gr)
		}
		a := model.FromMTBI(gr.MTBI, gr.Service)
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: group %d: %w", i, err)
		}
	}

	nInterrupted := int(float64(cfg.Nodes)*cfg.InterruptedRatio + 0.5)
	nodes := make([]Node, cfg.Nodes)
	// The interrupted nodes are divided evenly into the groups
	// (paper §V-A: "divided evenly into four groups").
	for i := 0; i < cfg.Nodes; i++ {
		nodes[i] = Node{Group: -1, ComputeRate: 1}
	}
	for j := 0; j < nInterrupted; j++ {
		gi := j % len(groups)
		nodes[j].Group = gi
		nodes[j].Availability = model.FromMTBI(groups[gi].MTBI, groups[gi].Service)
	}
	if cfg.Shuffle {
		if g == nil {
			return nil, errors.New("cluster: shuffle requires an RNG")
		}
		g.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	}
	return New(nodes)
}

// NewFromTraces builds a cluster whose nodes replay the given traces
// and carry availability parameters estimated from them — exactly what
// the NameNode's heartbeat collector would have observed.
func NewFromTraces(set *trace.Set) (*Cluster, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: traces: %w", err)
	}
	if set.Len() == 0 {
		return nil, ErrNoNodes
	}
	nodes := make([]Node, set.Len())
	for i := range set.Traces {
		tr := &set.Traces[i]
		nodes[i] = Node{
			Name:         tr.Host,
			Availability: tr.EstimateAvailability(),
			ComputeRate:  1,
			Group:        -1,
			Trace:        tr,
		}
	}
	return New(nodes)
}

// WithoutTraces returns a copy of the cluster whose nodes keep their
// estimated availability parameters but drop the trace pointers, so
// simulators synthesize interruptions parametrically (exponential
// arrivals at each host's λ) instead of replaying the recorded
// events. This is the "inject failures based on the data" mode: the
// failure process is statistically faithful to the trace while being
// consistent with the model the placement weights assume.
func (c *Cluster) WithoutTraces() *Cluster {
	nodes := c.Nodes()
	for i := range nodes {
		nodes[i].Trace = nil
	}
	out, err := New(nodes)
	if err != nil {
		// Unreachable: c is non-empty by construction.
		return c
	}
	return out
}

// SampleFromTraces builds a cluster from a random subset of hosts in
// the set, the way the paper "randomly selected 16384 nodes" from the
// SETI@home archive.
func SampleFromTraces(set *trace.Set, n int, g *stats.RNG) (*Cluster, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: traces: %w", err)
	}
	if n <= 0 || n > set.Len() {
		return nil, fmt.Errorf("cluster: cannot sample %d of %d hosts", n, set.Len())
	}
	perm := g.Perm(set.Len())
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		tr := &set.Traces[perm[i]]
		nodes[i] = Node{
			Name:         tr.Host,
			Availability: tr.EstimateAvailability(),
			ComputeRate:  1,
			Group:        -1,
			Trace:        tr,
		}
	}
	return New(nodes)
}
