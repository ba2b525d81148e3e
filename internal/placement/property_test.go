package placement

import (
	"testing"

	"github.com/adaptsim/adapt/internal/stats"
)

// Property-based placement invariants (§IV-C): arbitrary weight
// vectors must respect the m(k+1)/n capacity threshold, and ADAPT on a
// cluster where every node shares one availability pattern must
// degenerate to uniform placement.

// TestRandomWeightsRespectThreshold drives Weighted with seeded-random
// weight vectors — including heavy skew and zeroed-out nodes — and
// requires every resulting assignment to be structurally valid with no
// node above the m(k+1)/n cap.
func TestRandomWeightsRespectThreshold(t *testing.T) {
	g := stats.NewRNG(42)
	for draw := 0; draw < 200; draw++ {
		// n >= k^2 keeps the configuration feasible: below that, skewed
		// weights can saturate n-k+1 nodes before the file is fully
		// placed, leaving no k distinct holders for the next block.
		n := 12 + g.IntN(21) // 12..32 nodes
		m := n + g.IntN(300) // at least one block per node on average
		k := 1 + g.IntN(3)
		ws := make([]float64, n)
		positive := 0
		for i := range ws {
			switch g.IntN(4) {
			case 0: // dead node
				ws[i] = 0
			case 1: // heavy skew
				ws[i] = 1000 * g.Float64()
				positive++
			default:
				ws[i] = g.Float64()
				positive++
			}
		}
		if positive == 0 {
			ws[0] = 1
		}
		a, err := PlaceAll(newWeighted("fuzz", ws), m, k, g)
		if err != nil {
			t.Fatalf("draw %d (m=%d k=%d n=%d): %v", draw, m, k, n, err)
		}
		limit := Threshold(m, k, n)
		if err := a.Validate(k, limit); err != nil {
			t.Fatalf("draw %d (m=%d k=%d n=%d, cap %d): %v", draw, m, k, n, limit, err)
		}
		for id, count := range a.CountPerNode() {
			if count > limit {
				t.Fatalf("draw %d: node %d holds %d blocks, cap %d", draw, id, count, limit)
			}
		}
	}
}

// TestHomogeneousAdaptUniform checks the degeneration property: when
// every node has the same availability, ADAPT's weights are all equal
// and Algorithm 1 must reduce to uniform random placement. A chi-square
// statistic over the per-node block counts guards against systematic
// bias; the bound is the generous 99.9% quantile for n−1 degrees of
// freedom, and the seed is fixed so the test is deterministic.
func TestHomogeneousAdaptUniform(t *testing.T) {
	const (
		n = 32
		m = 3200 // expected 100 blocks per node
	)
	c := homogeneousCluster(t, n)
	p, err := NewAdapt(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlaceAll(p, m, 1, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(1, Threshold(m, 1, n)); err != nil {
		t.Fatal(err)
	}
	counts := a.CountPerNode()
	expected := float64(m) / float64(n)
	var chi2 float64
	for id, count := range counts {
		if count == 0 {
			t.Fatalf("node %d received no blocks under homogeneous availability", id)
		}
		d := float64(count) - expected
		chi2 += d * d / expected
	}
	// 99.9% chi-square quantile at 31 degrees of freedom is ~61.1.
	const bound = 61.1
	if chi2 > bound {
		t.Fatalf("chi-square %.2f exceeds %.1f: placement not uniform on a homogeneous cluster\ncounts: %v",
			chi2, bound, counts)
	}

	// The same cluster placed by the stock random policy must clear the
	// same bound — ADAPT should be statistically indistinguishable from
	// it here, not merely "close to uniform".
	ra, err := PlaceAll(&Random{Cluster: c}, m, 1, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var chi2Random float64
	for _, count := range ra.CountPerNode() {
		d := float64(count) - expected
		chi2Random += d * d / expected
	}
	if chi2Random > bound {
		t.Fatalf("control: random policy chi-square %.2f exceeds %.1f", chi2Random, bound)
	}
}
