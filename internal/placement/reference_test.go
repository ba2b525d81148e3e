package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// The chained hash table exactly as Algorithm 1 describes it — one
// slice of candidate nodes per key — kept as the oracle for spanTable.
// The span table must give every key the same chain, bit for bit, and
// so draw the same nodes from the same RNG state.

// chainEntry is one node chained on a hash-table key.
type chainEntry struct {
	node    int
	rate    float64 // global normalized rate of the node
	overlap float64 // length of the node interval ∩ [key, key+1)
}

// hashTable is the block→node table of Algorithm 1. Keys are block
// slots [0, m); values are chains of candidate nodes.
type hashTable struct {
	chains [][]chainEntry
	mode   CollisionMode
}

// buildHashTable implements subroutine buildHashTable of Algorithm 1.
func buildHashTable(m int, weights []float64, mode CollisionMode) (*hashTable, error) {
	var phi float64 // Φ = Σ 1/E(T_i)
	for _, w := range weights {
		if w > 0 && !math.IsInf(w, 1) {
			phi += w
		}
	}
	if phi <= 0 {
		return nil, ErrNoWeight
	}
	ht := &hashTable{chains: make([][]chainEntry, m), mode: mode}
	a := 0.0 // begin index of hash table keys for the current node
	for i, w := range weights {
		if w <= 0 || math.IsInf(w, 1) {
			continue
		}
		rate := w / phi
		wi := float64(m) * rate // number of blocks for node i
		b := a + wi             // end index of hash table keys for node i
		if b > float64(m) {
			b = float64(m)
		}
		// Insert node i into every integer key whose unit interval
		// [j, j+1) overlaps [a, b).
		for j := int(a); float64(j) < b && j < m; j++ {
			lo := math.Max(a, float64(j))
			hi := math.Min(b, float64(j+1))
			if hi <= lo {
				continue
			}
			ht.chains[j] = append(ht.chains[j], chainEntry{node: i, rate: rate, overlap: hi - lo})
		}
		a = b
	}
	// Floating-point slack can leave the trailing keys uncovered;
	// extend the last node's interval to m.
	for j := m - 1; j >= 0 && len(ht.chains[j]) == 0; j-- {
		// Find the previous non-empty chain and reuse its last node.
		for p := j - 1; p >= 0; p-- {
			if n := len(ht.chains[p]); n > 0 {
				last := ht.chains[p][n-1]
				last.overlap = 1
				ht.chains[j] = append(ht.chains[j], last)
				break
			}
		}
		if len(ht.chains[j]) == 0 {
			return nil, ErrNoWeight
		}
	}
	return ht, nil
}

// lookup implements subroutine dataPlacement of Algorithm 1.
func (ht *hashTable) lookup(g *stats.RNG) int {
	r := g.IntN(len(ht.chains))
	chain := ht.chains[r]
	if len(chain) == 1 {
		return chain[0].node
	}
	var omega float64
	for _, e := range chain {
		omega += ht.weightOf(e)
	}
	r1 := g.Float64()
	lowBound := 0.0
	for _, e := range chain {
		upBound := lowBound + ht.weightOf(e)/omega
		if r1 < upBound {
			return e.node
		}
		lowBound = upBound
	}
	return chain[len(chain)-1].node
}

func (ht *hashTable) weightOf(e chainEntry) float64 {
	if ht.mode == CollisionByOverlap {
		return e.overlap
	}
	return e.rate
}

// refPolicy places with the chained reference table: on saturation it
// rebuilds a fresh table from a copy of the weights with the saturated
// nodes zeroed. Everything past the table lookup is weightedPlacer's.
type refPolicy struct{ *Weighted }

func (w refPolicy) NewPlacer(m, k int, g *stats.RNG) (Placer, error) {
	pl, err := w.Weighted.NewPlacer(m, k, g)
	if err != nil {
		return nil, err
	}
	p := pl.(*weightedPlacer)
	ht, err := buildHashTable(m, p.weights, p.table.mode)
	if err != nil {
		return nil, err
	}
	return &refPlacer{weightedPlacer: p, ref: ht}, nil
}

type refPlacer struct {
	*weightedPlacer
	ref *hashTable
}

func (p *refPlacer) PlaceBlock(dst []cluster.NodeID) ([]cluster.NodeID, error) {
	first := len(dst)
	for r := 0; r < p.k; r++ {
		var node int
		var err error
		if r > 0 && p.uniformReplicas {
			node, err = p.placeUniform(dst[first:])
		} else {
			node, err = p.placeOne(dst[first:])
		}
		if err != nil {
			return nil, err
		}
		p.counts[node]++
		dst = append(dst, cluster.NodeID(node))
	}
	return dst, nil
}

func (p *refPlacer) placeOne(used []cluster.NodeID) (int, error) {
	for t := 0; t < 32; t++ {
		node := p.ref.lookup(p.g)
		if slices.Contains(used, cluster.NodeID(node)) {
			continue
		}
		if p.isSaturated(node) {
			ws := slices.Clone(p.weights)
			for i := range ws {
				if p.isSaturated(i) {
					ws[i] = 0
				}
			}
			ht, err := buildHashTable(len(p.ref.chains), ws, p.ref.mode)
			if err != nil {
				break
			}
			p.ref = ht
			continue
		}
		return node, nil
	}
	return p.placeSlow(used)
}

// weightCase is one generated table: weights that mix ordinary, heavily
// skewed, zero, negative, NaN, +Inf and denormal-tiny values over 1–40
// nodes, m from 1 up to three times the node count (so m < n about a
// third of the time), and either collision mode.
type weightCase struct {
	m    int
	ws   []float64
	mode CollisionMode
	seed uint64
}

func (weightCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(40)
	c := weightCase{m: 1 + r.Intn(3*n), ws: make([]float64, n), mode: CollisionByRate, seed: r.Uint64()}
	if r.Intn(8) == 0 {
		c.m = 1
	}
	if r.Intn(2) == 0 {
		c.mode = CollisionByOverlap
	}
	for i := range c.ws {
		switch r.Intn(10) {
		case 0:
			c.ws[i] = 0
		case 1:
			c.ws[i] = math.Inf(1)
		case 2:
			c.ws[i] = math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
		case 3:
			c.ws[i] = -r.Float64()
		case 4:
			c.ws[i] = math.NaN()
		case 5:
			c.ws[i] = 1000 * r.Float64()
		default:
			c.ws[i] = r.Float64()
		}
	}
	return reflect.ValueOf(c)
}

func newSpanTable(m int, ws []float64, mode CollisionMode) (*spanTable, error) {
	t := &spanTable{spans: make([]span, 0, len(ws)), m: m, mode: mode}
	return t, t.build(ws, func(int) bool { return false })
}

// sameTables builds both tables for c and compares them: the same
// build error, the same chain on every key, and the same sequence of
// drawn nodes from one seed, leaving the RNG in the same state.
func sameTables(c weightCase) error {
	t, err := newSpanTable(c.m, c.ws, c.mode)
	ht, refErr := buildHashTable(c.m, c.ws, c.mode)
	if err != nil || refErr != nil {
		if !errors.Is(err, ErrNoWeight) || !errors.Is(refErr, ErrNoWeight) {
			return fmt.Errorf("build errors differ: %v, reference %v", err, refErr)
		}
		return nil
	}
	for r, want := range ht.chains {
		got := t.chain(r)
		if len(got) != len(want) {
			return fmt.Errorf("key %d: %d chained nodes, reference %d", r, len(got), len(want))
		}
		for i, s := range got {
			overlap := s.overlap(float64(r))
			if r >= t.end {
				overlap = 1 // the trailing-key fill
			}
			e := want[i]
			if s.node != e.node || math.Float64bits(s.rate) != math.Float64bits(e.rate) ||
				math.Float64bits(overlap) != math.Float64bits(e.overlap) {
				return fmt.Errorf("key %d entry %d: {%d %v %v}, reference %+v", r, i, s.node, s.rate, overlap, e)
			}
		}
	}
	g, refG := stats.NewRNG(c.seed), stats.NewRNG(c.seed)
	for d := 0; d < 4*c.m+16; d++ {
		if got, want := t.lookup(g), ht.lookup(refG); got != want {
			return fmt.Errorf("draw %d: node %d, reference %d", d, got, want)
		}
	}
	if g.Uint64() != refG.Uint64() {
		return errors.New("draws consumed the RNG differently")
	}
	return nil
}

func TestSpanTableMatchesChainedReference(t *testing.T) {
	many := make([]float64, 40)
	for i := range many {
		many[i] = float64(i%7) + 0.5
	}
	fixed := []weightCase{
		{m: 1, ws: []float64{1, 2, 3}},
		{m: 3, ws: many},
		{m: 5, ws: []float64{0, 0, -1, math.NaN(), math.Inf(1)}}, // no weight
		{m: 10, ws: []float64{1e308, 1e308, 1}},                  // Φ overflows
		{m: 7, ws: []float64{math.Inf(1), math.SmallestNonzeroFloat64, 1}},
		{m: 9, ws: []float64{math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64}},
		{m: 64, ws: []float64{1e-300, 1, 1e300, 0, 2}},
		{m: 10, ws: []float64{1, 2, math.NaN(), 3}}, // keys 5..9 are the trailing fill
	}
	for _, c := range fixed {
		for _, mode := range []CollisionMode{CollisionByRate, CollisionByOverlap} {
			c.mode, c.seed = mode, 3
			if err := sameTables(c); err != nil {
				t.Errorf("m=%d ws=%v %v: %v", c.m, c.ws, mode, err)
			}
		}
	}
	// Rounding alone leaves no whole key uncovered at any m a reference
	// table fits in; a NaN weight empties its interval and every later
	// one, so the fill covers the rest of the key line.
	if tbl, err := newSpanTable(10, []float64{1, 2, math.NaN(), 3}, CollisionByRate); err != nil || tbl.end != 5 {
		t.Fatalf("trailing-fill case: end = %d, err = %v; want end 5", tbl.end, err)
	}
	if err := quick.Check(func(c weightCase) bool {
		err := sameTables(c)
		if err != nil {
			t.Logf("m=%d ws=%v %v: %v", c.m, c.ws, c.mode, err)
		}
		return err == nil
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceAllMatchesReferencePlacer drives whole files through
// saturation and its rebuilds with both tables, for k = 1..3 with the
// threshold on and off, and requires identical assignments and errors.
func TestPlaceAllMatchesReferencePlacer(t *testing.T) {
	same := func(w *Weighted, m, k int, seed uint64) error {
		a, err := PlaceAll(w, m, k, stats.NewRNG(seed))
		b, refErr := PlaceAll(refPolicy{w}, m, k, stats.NewRNG(seed))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			return fmt.Errorf("errors differ: %v, reference %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(a.Replicas, b.Replicas) {
			return errors.New("assignments differ")
		}
		return nil
	}
	emu, err := NewAdapt(emulationCluster(t, 64), 12)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		for _, off := range []bool{false, true} {
			emu.DisableThreshold = off
			if err := same(emu, 64*50, k, uint64(k)); err != nil {
				t.Errorf("emulation k=%d threshold off=%v: %v", k, off, err)
			}
		}
	}
	if err := quick.Check(func(c weightCase, kRaw uint8, off, uniform bool) bool {
		w := newWeighted("fuzz", c.ws)
		w.Mode, w.DisableThreshold, w.UniformReplicas = c.mode, off, uniform
		err := same(w, 4*c.m, int(kRaw%3)+1, c.seed)
		if err != nil {
			t.Logf("m=%d k=%d off=%v ws=%v: %v", 4*c.m, kRaw%3+1, off, c.ws, err)
		}
		return err == nil
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
