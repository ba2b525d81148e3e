package placement

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/stats"
)

func emulationCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: nodes, InterruptedRatio: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func homogeneousCluster(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	ns := make([]cluster.Node, nodes)
	for i := range ns {
		ns[i].Availability = model.FromMTBI(100, 4)
	}
	c, err := cluster.New(ns)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		m, k, n int
		want    int
	}{
		{2560, 1, 128, 40}, // paper default: 20 blocks/node avg, cap 40
		{2560, 2, 128, 60}, // 2 replicas
		{100, 1, 7, 29},    // ceil(200/7)=29
		{1, 1, 10, 1},      // at least k
		{10, 3, 100, 3},    // at least k
		{0, 1, 10, 0},      // degenerate
		{10, 0, 10, 0},     // degenerate
	}
	for _, c := range cases {
		if got := Threshold(c.m, c.k, c.n); got != c.want {
			t.Errorf("Threshold(%d,%d,%d) = %d, want %d", c.m, c.k, c.n, got, c.want)
		}
	}
}

func TestRandomUniformity(t *testing.T) {
	c := homogeneousCluster(t, 64)
	p := &Random{Cluster: c}
	m := 64 * 200
	a, err := PlaceAll(p, m, 1, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	a.Nodes = c.Len()
	if err := a.Validate(1, Threshold(m, 1, 64)); err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()
	s := stats.Summarize(floatCounts(counts))
	// Expected 200/node; 5-sigma band for binomial(12800, 1/64) is
	// roughly 200 ± 70.
	if s.Min() < 130 || s.Max() > 270 {
		t.Fatalf("uniform placement too skewed: %v", &s)
	}
}

func TestRandomDistinctReplicas(t *testing.T) {
	c := homogeneousCluster(t, 8)
	p := &Random{Cluster: c}
	a, err := PlaceAll(p, 100, 3, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	a.Nodes = 8
	if err := a.Validate(3, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDeterministic(t *testing.T) {
	c := homogeneousCluster(t, 16)
	p := &Random{Cluster: c}
	a, err := PlaceAll(p, 50, 2, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceAll(p, 50, 2, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Replicas {
		for j := range a.Replicas[i] {
			if a.Replicas[i][j] != b.Replicas[i][j] {
				t.Fatal("random placement not deterministic under fixed seed")
			}
		}
	}
}

func TestRandomArgValidation(t *testing.T) {
	c := homogeneousCluster(t, 4)
	p := &Random{Cluster: c}
	g := stats.NewRNG(1)
	if _, err := p.NewPlacer(0, 1, g); !errors.Is(err, ErrBadBlockCount) {
		t.Errorf("m=0: %v", err)
	}
	if _, err := p.NewPlacer(10, 0, g); !errors.Is(err, ErrBadReplicas) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := p.NewPlacer(10, 5, g); !errors.Is(err, ErrTooManyReplicas) {
		t.Errorf("k>n: %v", err)
	}
	if _, err := p.NewPlacer(10, 1, nil); !errors.Is(err, ErrNilRNG) {
		t.Errorf("nil rng: %v", err)
	}
}

func TestAdaptHomogeneousIsUniform(t *testing.T) {
	// §III-C: "the availability-aware data placement algorithm ... is
	// logically equivalent to the existing data placement algorithm
	// if all the nodes share the same availability pattern."
	c := homogeneousCluster(t, 32)
	p, err := NewAdapt(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	m := 32 * 300
	a, err := PlaceAll(p, m, 1, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()
	s := stats.Summarize(floatCounts(counts))
	if math.Abs(s.Mean()-300) > 1e-9 {
		t.Fatalf("mean = %g", s.Mean())
	}
	if s.Min() < 220 || s.Max() > 380 {
		t.Fatalf("homogeneous ADAPT too skewed: %v", &s)
	}
}

func TestAdaptProportionalToEfficiency(t *testing.T) {
	c := emulationCluster(t, 64)
	gamma := 12.0
	p, err := NewAdapt(c, gamma)
	if err != nil {
		t.Fatal(err)
	}
	p.DisableThreshold = true // measure the raw weighting
	m := 64 * 500
	a, err := PlaceAll(p, m, 1, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()

	effs := c.Efficiencies(gamma)
	var phi float64
	for _, e := range effs {
		phi += e
	}
	for i, e := range effs {
		want := float64(m) * e / phi
		got := float64(counts[i])
		// Binomial noise: allow ±5 sigma + small bias from the
		// by-rate collision rule.
		sigma := math.Sqrt(want)
		tol := 5*sigma + 0.05*want
		if math.Abs(got-want) > tol {
			t.Errorf("node %d: got %g blocks, want %g ± %g", i, got, want, tol)
		}
	}

	// Reliable nodes must receive strictly more blocks than group-1
	// (most volatile) nodes in aggregate.
	var volatile, reliable int
	for i, n := range c.Nodes() {
		switch n.Group {
		case 0:
			volatile += counts[i]
		case -1:
			reliable += counts[i]
		}
	}
	if reliable <= volatile {
		t.Fatalf("reliable total %d not above volatile total %d", reliable, volatile)
	}
}

func TestAdaptThresholdEnforced(t *testing.T) {
	// One nearly-perfect node and many bad ones: without the cap the
	// good node would take nearly everything; the threshold must bind.
	ws := make([]float64, 10)
	ws[0] = 1000
	for i := 1; i < 10; i++ {
		ws[i] = 1
	}
	p := NewWeighted("skewed", ws)
	m, k := 100, 1
	a, err := PlaceAll(p, m, k, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	a.Nodes = 10
	limit := Threshold(m, k, 10) // 20
	if err := a.Validate(k, limit); err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()
	if counts[0] != limit {
		t.Fatalf("dominant node holds %d, want the cap %d", counts[0], limit)
	}
}

func TestWeightedReplicasDistinct(t *testing.T) {
	c := emulationCluster(t, 16)
	p, err := NewAdapt(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlaceAll(p, 200, 3, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	a.Nodes = 16
	if err := a.Validate(3, Threshold(200, 3, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveWeights(t *testing.T) {
	c := emulationCluster(t, 64)
	p, err := NewNaive(c)
	if err != nil {
		t.Fatal(err)
	}
	p.DisableThreshold = true
	m := 64 * 500
	a, err := PlaceAll(p, m, 1, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()

	avails := c.Availabilities()
	var total float64
	ws := make([]float64, len(avails))
	for i, av := range avails {
		ws[i] = av.SteadyStateAvailability()
		total += ws[i]
	}
	for i, w := range ws {
		want := float64(m) * w / total
		got := float64(counts[i])
		tol := 5*math.Sqrt(want) + 0.05*want
		if math.Abs(got-want) > tol {
			t.Errorf("node %d: got %g, want %g ± %g", i, got, want, tol)
		}
	}
}

func TestNaiveLessAggressiveThanAdapt(t *testing.T) {
	// The naive weights (steady-state availability) differentiate
	// nodes much less than 1/E[T]: for Table 2 group 1 vs a reliable
	// node, availability ratio is 0.6 vs 1 while efficiency ratio is
	// far smaller. ADAPT must therefore shift more blocks to reliable
	// nodes than naive does.
	c := emulationCluster(t, 64)
	m := 64 * 200
	g1 := stats.NewRNG(3)
	adapt, err := NewAdapt(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	adapt.DisableThreshold = true
	aA, err := PlaceAll(adapt, m, 1, g1)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaive(c)
	if err != nil {
		t.Fatal(err)
	}
	naive.DisableThreshold = true
	aN, err := PlaceAll(naive, m, 1, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	reliableShare := func(a *Assignment) float64 {
		counts := a.CountPerNode()
		var rel int
		for i, n := range c.Nodes() {
			if n.Group == -1 && i < len(counts) {
				rel += counts[i]
			}
		}
		return float64(rel) / float64(m)
	}
	if reliableShare(aA) <= reliableShare(aN) {
		t.Fatalf("adapt reliable share %.3f not above naive %.3f",
			reliableShare(aA), reliableShare(aN))
	}
}

func TestCollisionModes(t *testing.T) {
	ws := []float64{3, 1, 1, 1, 2, 5, 1, 1}
	for _, mode := range []CollisionMode{CollisionByRate, CollisionByOverlap} {
		t.Run(mode.String(), func(t *testing.T) {
			p := NewWeighted("w", ws)
			p.Mode = mode
			p.DisableThreshold = true
			m := 15000
			a, err := PlaceAll(p, m, 1, stats.NewRNG(10))
			if err != nil {
				t.Fatal(err)
			}
			counts := a.CountPerNode()
			var total float64
			for _, w := range ws {
				total += w
			}
			for i, w := range ws {
				want := float64(m) * w / total
				got := float64(counts[i])
				tol := 6*math.Sqrt(want) + 0.08*want
				if math.Abs(got-want) > tol {
					t.Errorf("node %d: got %g, want %g ± %g", i, got, want, tol)
				}
			}
		})
	}
}

func TestUniformReplicasOption(t *testing.T) {
	ws := make([]float64, 20)
	ws[0] = 100
	for i := 1; i < 20; i++ {
		ws[i] = 1
	}
	p := NewWeighted("w", ws)
	p.UniformReplicas = true
	a, err := PlaceAll(p, 100, 2, stats.NewRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	a.Nodes = 20
	if err := a.Validate(2, Threshold(100, 2, 20)); err != nil {
		t.Fatal(err)
	}
	// Secondary replicas should spread widely: count distinct
	// secondary holders.
	seen := map[cluster.NodeID]bool{}
	for _, hs := range a.Replicas {
		seen[hs[1]] = true
	}
	if len(seen) < 10 {
		t.Fatalf("secondary replicas hit only %d nodes", len(seen))
	}
}

func TestWeightedAllZeroWeights(t *testing.T) {
	p := NewWeighted("zero", []float64{0, 0, 0})
	if _, err := p.NewPlacer(10, 1, stats.NewRNG(1)); !errors.Is(err, ErrNoWeight) {
		t.Fatalf("err = %v, want ErrNoWeight", err)
	}
}

func TestAdaptBadGamma(t *testing.T) {
	c := homogeneousCluster(t, 4)
	for _, gamma := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := NewAdapt(c, gamma); err == nil {
			t.Errorf("gamma=%g accepted", gamma)
		}
	}
	if _, err := NewAdapt(nil, 12); err == nil {
		t.Error("nil cluster accepted")
	}
}

func TestPlacementProperty(t *testing.T) {
	// For arbitrary small configurations, placement always yields a
	// structurally valid assignment under the threshold.
	c := emulationCluster(t, 16)
	adapt, err := NewAdapt(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	rnd := &Random{Cluster: c}
	err = quick.Check(func(mRaw, kRaw, seed uint8) bool {
		m := int(mRaw)%200 + 1
		k := int(kRaw)%3 + 1
		for _, pol := range []Policy{adapt, rnd} {
			a, err := PlaceAll(pol, m, k, stats.NewRNG(uint64(seed)))
			if err != nil {
				return false
			}
			a.Nodes = c.Len()
			if err := a.Validate(k, Threshold(m, k, c.Len())); err != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryCountPerNode(t *testing.T) {
	a := &Assignment{Nodes: 4, Replicas: [][]cluster.NodeID{
		{0, 1}, {0, 2}, {3, 0},
	}}
	pc := a.PrimaryCountPerNode()
	if pc[0] != 2 || pc[3] != 1 || pc[1] != 0 {
		t.Fatalf("primary counts = %v", pc)
	}
	cc := a.CountPerNode()
	if cc[0] != 3 || cc[1] != 1 || cc[2] != 1 || cc[3] != 1 {
		t.Fatalf("counts = %v", cc)
	}
}

func TestAssignmentValidateRejects(t *testing.T) {
	dup := &Assignment{Nodes: 4, Replicas: [][]cluster.NodeID{{1, 1}}}
	if err := dup.Validate(2, 0); err == nil {
		t.Error("duplicate holder accepted")
	}
	wrongK := &Assignment{Nodes: 4, Replicas: [][]cluster.NodeID{{1}}}
	if err := wrongK.Validate(2, 0); err == nil {
		t.Error("wrong replica count accepted")
	}
	badID := &Assignment{Nodes: 2, Replicas: [][]cluster.NodeID{{5}}}
	if err := badID.Validate(1, 0); err == nil {
		t.Error("invalid node id accepted")
	}
	overCap := &Assignment{Nodes: 2, Replicas: [][]cluster.NodeID{{0}, {0}, {0}}}
	if err := overCap.Validate(1, 2); err == nil {
		t.Error("cap violation accepted")
	}
}

func floatCounts(counts []int) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c)
	}
	return out
}

func TestPolicyNames(t *testing.T) {
	c := homogeneousCluster(t, 4)
	if (&Random{Cluster: c}).Name() != "random" {
		t.Error("random name")
	}
	a, err := NewAdapt(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "adapt" {
		t.Error("adapt name")
	}
	n, err := NewNaive(c)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "naive" {
		t.Error("naive name")
	}
}

func TestAssignmentBlockCount(t *testing.T) {
	a := &Assignment{Replicas: make([][]cluster.NodeID, 7)}
	if a.BlockCount() != 7 {
		t.Fatalf("count = %d", a.BlockCount())
	}
}

// ADAPT's design goal: without the cap, expected completion time
// w_i * E[T_i] is (approximately) equal across nodes.
func TestAdaptBalancesExpectedCompletion(t *testing.T) {
	c := emulationCluster(t, 32)
	gamma := 12.0
	p, err := NewAdapt(c, gamma)
	if err != nil {
		t.Fatal(err)
	}
	p.DisableThreshold = true
	m := 32 * 1000
	a, err := PlaceAll(p, m, 1, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()
	var s stats.Summary
	for i, n := range c.Nodes() {
		et := n.Availability.ExpectedTaskTime(gamma)
		s.Add(float64(counts[i]) * et)
	}
	// Per-node expected completion should cluster tightly: CoV under
	// 10% with 1000 blocks/node of statistical smoothing.
	if cov := s.CoV(); cov > 0.10 {
		t.Fatalf("expected-completion CoV = %.3f, want <= 0.10 (%v)", cov, &s)
	}
}
