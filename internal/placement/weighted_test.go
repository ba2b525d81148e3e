package placement

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// assignmentDigest is the sha256 of every holder id, block by block.
func assignmentDigest(a *Assignment) string {
	h := sha256.New()
	var buf [4]byte
	for _, hs := range a.Replicas {
		for _, node := range hs {
			binary.LittleEndian.PutUint32(buf[:], uint32(node))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSaturatedWeightsSpillOntoZeroWeightNodes covers the path on which
// every weighted node reaches the m(k+1)/n cap before the file is
// placed. Four weighted nodes out of twelve can hold only 4·cap
// replicas, fewer than m·k, so the rebuild that would drop the last
// weighted node fails with ErrNoWeight and every later replica falls
// through to the uniform draw over zero-weight nodes. The digests pin
// the draws for a fixed seed.
func TestSaturatedWeightsSpillOntoZeroWeightNodes(t *testing.T) {
	ws := []float64{0, 5, 0, 0, 1, 0, 0, 3, 0, 0, 2, 0}
	const m = 1200
	n := len(ws)
	for _, tc := range []struct {
		k      int
		digest string
	}{
		{1, "76c5fe71100f669194f268c03327b3018cf184f737d35f20bc1a7697b883bd3f"},
		{2, "01a140606dbea03ff7ef7e0d803e3f8684cdf9c54605a5fb83e8c7422ce6563c"},
	} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			a, err := PlaceAll(NewWeighted("spill", ws), m, tc.k, stats.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			a.Nodes = n
			limit := Threshold(m, tc.k, n)
			if err := a.Validate(tc.k, limit); err != nil {
				t.Fatal(err)
			}
			spill := m*tc.k - 4*limit
			want := float64(spill) / 8
			for i, count := range a.CountPerNode() {
				if ws[i] > 0 {
					if count != limit {
						t.Errorf("weighted node %d holds %d, want the cap %d", i, count, limit)
					}
					continue
				}
				// Uniform over 8 nodes: about ±4.5 binomial sigma.
				if d := float64(count) - want; d*d > 20*want {
					t.Errorf("zero-weight node %d holds %d, want about %.0f", i, count, want)
				}
			}
			if got := assignmentDigest(a); got != tc.digest {
				t.Errorf("digest = %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestFailedRebuildKeepsTable saturates every weighted node by hand: the
// rebuild that finds no weight left must fail without touching the
// span buffer, the table must still draw, and the block must spill to
// a zero-weight node. A rebuild that succeeds allocates nothing.
func TestFailedRebuildKeepsTable(t *testing.T) {
	ws := []float64{0, 5, 0, 0, 1, 0, 0, 3, 0, 0, 2, 0}
	pl, err := NewWeighted("spill", ws).NewPlacer(1200, 1, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	p := pl.(*weightedPlacer)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := p.table.build(p.weights, p.isSaturated); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a rebuild allocates %.0f times, want 0", allocs)
	}
	before, end := slices.Clone(p.table.spans), p.table.end
	for i, w := range ws {
		if w > 0 {
			p.counts[i] = p.limit
		}
	}
	if err := p.table.build(p.weights, p.isSaturated); !errors.Is(err, ErrNoWeight) {
		t.Fatalf("rebuild with every weighted node saturated: %v, want ErrNoWeight", err)
	}
	if !slices.Equal(p.table.spans, before) || p.table.end != end {
		t.Fatalf("failed rebuild changed the table: %+v end %d, was %+v end %d", p.table.spans, p.table.end, before, end)
	}
	for d := 0; d < 100; d++ {
		if node := p.table.lookup(p.g); ws[node] <= 0 {
			t.Fatalf("draw %d: zero-weight node %d from the kept table", d, node)
		}
	}
	holders, err := p.PlaceBlock()
	if err != nil {
		t.Fatal(err)
	}
	if ws[holders[0]] != 0 {
		t.Fatalf("block placed on weighted node %d past its cap", holders[0])
	}
}

// simScaleCluster builds the trace-derived cluster the benchmark's
// sim_scale workload places on: SETI@home-style hosts, time-scaled to
// a 3000 s mean time between interruptions over a 50000 s window.
func simScaleCluster(tb testing.TB, hosts int) *cluster.Cluster {
	tb.Helper()
	gen := trace.DefaultSETIConfig(hosts)
	gen.TimeScale = 3000 / trace.SETIMTBIMean
	gen.Horizon = 50000 / gen.TimeScale
	set, err := trace.Generate(gen, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cluster.NewFromTraces(set)
	if err != nil {
		tb.Fatal(err)
	}
	return c.WithoutTraces()
}

// TestPlaceAllAllocs pins what one ADAPT file of sim_scale's shape
// (3072 hosts × 10 blocks, one replica) allocates. Saturation rebuilds
// reuse the placer's span buffer, so what is left is one holder slice
// per block plus a constant.
func TestPlaceAllAllocs(t *testing.T) {
	const hosts = 3072
	m := hosts * 10
	pol, err := NewAdapt(simScaleCluster(t, hosts), 12)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(3, func() {
		seed++
		if _, err := PlaceAll(pol, m, 1, stats.NewRNG(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(m + 256); allocs > limit {
		t.Fatalf("PlaceAll allocates %.0f times, want at most %.0f", allocs, limit)
	}
	t.Logf("%.0f allocations for %d blocks", allocs, m)
}

func BenchmarkPlaceAll(b *testing.B) {
	for _, hosts := range []int{3072, 16384} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			pol, err := NewAdapt(simScaleCluster(b, hosts), 12)
			if err != nil {
				b.Fatal(err)
			}
			m := hosts * 10
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PlaceAll(pol, m, 1, stats.NewRNG(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
