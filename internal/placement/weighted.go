package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// CollisionMode selects how dataPlacement resolves hash-table keys
// with more than one chained node.
type CollisionMode int

const (
	// CollisionByRate is the paper's Algorithm 1: pick among chained
	// nodes proportionally to their global rates rate_i/Ω.
	CollisionByRate CollisionMode = iota + 1
	// CollisionByOverlap picks proportionally to the length of each
	// node's weight-interval overlap with the key's unit interval,
	// which makes the per-node expected block counts exact. Provided
	// as an ablation of the paper's design choice.
	CollisionByOverlap
)

func (m CollisionMode) String() string {
	switch m {
	case CollisionByRate:
		return "by-rate"
	case CollisionByOverlap:
		return "by-overlap"
	default:
		return fmt.Sprintf("CollisionMode(%d)", int(m))
	}
}

// span is one node's interval [lo, hi) on Algorithm 1's key line
// [0, m): the node is chained on every key j whose unit interval
// [j, j+1) the span overlaps.
type span struct {
	node   int
	rate   float64 // global normalized rate of the node
	lo, hi float64
}

// overlap is the length of the span ∩ [x, x+1).
func (s span) overlap(x float64) float64 { return min(s.hi, x+1) - max(s.lo, x) }

// spanTable is the block→node hash table of Algorithm 1. Keys are block
// slots [0, m). Instead of one chain per key it keeps the node spans
// the chains are cut from, in node order; a key's chain is the run of
// spans that overlap it.
type spanTable struct {
	spans []span
	m     int // number of keys
	end   int // first key no span covers
	mode  CollisionMode
}

// build implements subroutine buildHashTable of Algorithm 1 over the
// nodes with positive weight that skip does not exclude. weights[i] is
// the raw weight of node i (1/E[T_i] for ADAPT). It reuses the spans'
// backing array, which it writes only when it succeeds.
func (t *spanTable) build(weights []float64, skip func(node int) bool) error {
	var phi float64 // Φ = Σ 1/E(T_i)
	for i, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !skip(i) {
			phi += w
		}
	}
	spans := t.spans[:0]
	a := 0.0 // begin index of hash table keys for the current node
	for i, w := range weights {
		if w <= 0 || math.IsInf(w, 1) || skip(i) {
			continue
		}
		rate := w / phi
		wi := float64(t.m) * rate // number of blocks for node i
		b := min(a+wi, float64(t.m))
		if b > a {
			spans = append(spans, span{node: i, rate: rate, lo: a, hi: b})
		}
		a = b
	}
	// No span: Φ is zero, or so large that every rate rounds to zero,
	// or a NaN weight precedes every other; a NaN weight empties its
	// interval and all later ones, which leaves trailing keys.
	if len(spans) == 0 {
		return ErrNoWeight
	}
	t.spans, t.end = spans, int(math.Ceil(spans[len(spans)-1].hi))
	return nil
}

// chain returns the spans chained on key r, in node order.
func (t *spanTable) chain(r int) []span {
	if r >= t.end {
		// Keys past the last span (left by a NaN weight, or by rounding
		// on a long enough key line) reuse the last node's interval.
		return t.spans[len(t.spans)-1:]
	}
	x := float64(r)
	i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].hi > x })
	j := i + 1
	for j < len(t.spans) && int(t.spans[j].lo) <= r {
		j++
	}
	return t.spans[i:j]
}

// lookup implements subroutine dataPlacement of Algorithm 1: draw a
// random key r in [0, m) and resolve the chain.
func (t *spanTable) lookup(g *stats.RNG) int {
	r := g.IntN(t.m)
	chain := t.chain(r)
	if len(chain) == 1 {
		return chain[0].node
	}
	// Handle the collisions: weighted draw within the chain.
	x := float64(r)
	var omega float64
	for _, s := range chain {
		omega += t.weightOf(s, x)
	}
	r1 := g.Float64()
	lowBound := 0.0
	for _, s := range chain {
		upBound := lowBound + t.weightOf(s, x)/omega
		if r1 < upBound {
			return s.node
		}
		lowBound = upBound
	}
	return chain[len(chain)-1].node
}

func (t *spanTable) weightOf(s span, x float64) float64 {
	if t.mode == CollisionByOverlap {
		return s.overlap(x)
	}
	return s.rate
}

// Weighted is the machinery shared by ADAPT and the naive strategy: a
// policy that dispatches blocks proportionally to per-node weights via
// the Algorithm 1 hash table, subject to the m(k+1)/n capacity
// threshold.
type Weighted struct {
	name    string
	weights func() ([]float64, error)
	// Mode selects collision handling; zero value means
	// CollisionByRate (the paper's choice).
	Mode CollisionMode
	// DisableThreshold removes the capacity cap.
	DisableThreshold bool
	// UniformReplicas places replicas beyond the first uniformly at
	// random (stock HDFS style) instead of weighted. Default false:
	// all replicas follow the availability-aware weights.
	UniformReplicas bool
}

var _ Policy = (*Weighted)(nil)

// NewAdapt returns the ADAPT policy for the given cluster: node
// weights are the model efficiencies 1/E[T_i] at failure-free task
// length gamma (seconds per block).
func NewAdapt(c *cluster.Cluster, gamma float64) (*Weighted, error) {
	if c == nil || c.Len() == 0 {
		return nil, cluster.ErrNoNodes
	}
	if gamma <= 0 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return nil, fmt.Errorf("placement: adapt gamma must be positive and finite, got %g", gamma)
	}
	return &Weighted{
		name: "adapt",
		weights: func() ([]float64, error) {
			return c.Efficiencies(gamma), nil
		},
	}, nil
}

// NewNaive returns the naive availability-proportional strategy from
// §V-C: weight_i = (MTBI_i − μ_i)/MTBI_i = 1 − λ_i μ_i.
func NewNaive(c *cluster.Cluster) (*Weighted, error) {
	if c == nil || c.Len() == 0 {
		return nil, cluster.ErrNoNodes
	}
	return &Weighted{
		name: "naive",
		weights: func() ([]float64, error) {
			avails := c.Availabilities()
			ws := make([]float64, len(avails))
			for i, a := range avails {
				ws[i] = a.SteadyStateAvailability()
			}
			return ws, nil
		},
	}, nil
}

// NewWeighted returns a policy with caller-supplied static weights
// (used by tests and extensions).
func NewWeighted(name string, weights []float64) *Weighted {
	ws := make([]float64, len(weights))
	copy(ws, weights)
	return &Weighted{
		name:    name,
		weights: func() ([]float64, error) { return ws, nil },
	}
}

// Name implements Policy.
func (w *Weighted) Name() string { return w.name }

// NewPlacer implements Policy. The hash table is created here — once
// per file distribution, as in the prototype (§IV-B1) — and discarded
// with the placer.
func (w *Weighted) NewPlacer(m, k int, g *stats.RNG) (Placer, error) {
	ws, err := w.weights()
	if err != nil {
		return nil, err
	}
	n := len(ws)
	if err := validateCommon(m, k, n, g); err != nil {
		return nil, err
	}
	mode := w.Mode
	if mode == 0 {
		mode = CollisionByRate
	}
	limit := 0
	if !w.DisableThreshold {
		limit = Threshold(m, k, n)
	}
	wp := &weightedPlacer{
		weights:         ws,
		k:               k,
		limit:           limit,
		counts:          make([]int, n),
		table:           spanTable{spans: make([]span, 0, n), m: m, mode: mode},
		g:               g,
		uniformReplicas: w.UniformReplicas,
	}
	if err := wp.table.build(ws, wp.isSaturated); err != nil {
		return nil, err
	}
	return wp, nil
}

type weightedPlacer struct {
	weights         []float64
	k               int
	limit           int // 0 = unbounded
	counts          []int
	table           spanTable
	g               *stats.RNG
	uniformReplicas bool
}

func (p *weightedPlacer) isSaturated(node int) bool {
	return p.limit > 0 && p.counts[node] >= p.limit
}

// eligible reports whether node may take the next replica of a block
// already held by used.
func (p *weightedPlacer) eligible(node int, used []cluster.NodeID) bool {
	return !p.isSaturated(node) && !slices.Contains(used, cluster.NodeID(node))
}

// placeOne draws one holder, excluding nodes in used, honoring caps.
func (p *weightedPlacer) placeOne(used []cluster.NodeID) (int, error) {
	// Fast path: Algorithm 1 lookup; redraw on saturated/used hits.
	const tries = 32
	for t := 0; t < tries; t++ {
		node := p.table.lookup(p.g)
		if slices.Contains(used, cluster.NodeID(node)) {
			continue
		}
		if p.isSaturated(node) {
			// "The node that reaches the threshold will not be
			// considered for future data block placement" (§IV-C).
			if p.table.build(p.weights, p.isSaturated) != nil {
				// Every weighted node is saturated; only the slow
				// path's uniform fallback over zero-weight capacity
				// can still place this block.
				break
			}
			continue
		}
		return node, nil
	}
	return p.placeSlow(used)
}

// placeSlow is an explicit weighted draw over eligible nodes.
func (p *weightedPlacer) placeSlow(used []cluster.NodeID) (int, error) {
	var total float64
	for i, w := range p.weights {
		if w > 0 && p.eligible(i, used) {
			total += w
		}
	}
	if total <= 0 {
		// Weighted mass exhausted; fall back to any node with
		// capacity so the file can still be stored (matches HDFS,
		// which never fails placement while space remains).
		return p.placeUniform(used)
	}
	r := p.g.Float64() * total
	for i, w := range p.weights {
		if w <= 0 || !p.eligible(i, used) {
			continue
		}
		r -= w
		if r <= 0 {
			return i, nil
		}
	}
	// Floating point slack: return the last eligible node.
	for i := len(p.weights) - 1; i >= 0; i-- {
		if p.weights[i] > 0 && p.eligible(i, used) {
			return i, nil
		}
	}
	return -1, ErrNoCapacity
}

// placeUniform draws one holder uniformly among eligible nodes.
func (p *weightedPlacer) placeUniform(used []cluster.NodeID) (int, error) {
	seen := 0
	pick := -1
	for i := range p.weights {
		if !p.eligible(i, used) {
			continue
		}
		seen++
		if p.g.IntN(seen) == 0 {
			pick = i
		}
	}
	if pick < 0 {
		return -1, ErrNoCapacity
	}
	return pick, nil
}

// PlaceBlock implements Placer.
func (p *weightedPlacer) PlaceBlock() ([]cluster.NodeID, error) {
	holders := make([]cluster.NodeID, 0, p.k)
	for r := 0; r < p.k; r++ {
		var node int
		var err error
		if r > 0 && p.uniformReplicas {
			node, err = p.placeUniform(holders)
		} else {
			node, err = p.placeOne(holders)
		}
		if err != nil {
			return nil, err
		}
		p.counts[node]++
		holders = append(holders, cluster.NodeID(node))
	}
	return holders, nil
}
