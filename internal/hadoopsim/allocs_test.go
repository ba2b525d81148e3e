package hadoopsim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// runAllocs returns the allocations of newSimulator plus run for cfg
// and the engine events the run processed.
func runAllocs(tb testing.TB, cfg Config, seed uint64) (allocs float64, events uint64) {
	tb.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		tb.Fatal(err)
	}
	allocs = testing.AllocsPerRun(1, func() {
		// Two collections empty the arena pool, so every run sets up
		// from scratch and only what its event loop allocates can
		// differ between the short run and the long one.
		runtime.GC()
		runtime.GC()
		s, err := newSimulator(cfg, stats.NewRNG(seed))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.run(); err != nil {
			tb.Fatal(err)
		}
		events = s.eng.Processed()
	})
	return allocs, events
}

// TestRunAllocsIndependentOfEvents is the allocation ratchet of the
// event loop: newSimulator sizes what grows with the task count, events
// re-arm timers embedded in nodes and attempts, and attempts are
// recycled, so a run with ten times the tasks per node allocates no
// more than the short one, up to n for the slices that grow with the
// peak of concurrent work (the event heap, the running list, attempts
// beyond one per node). The redundant policy with K=3 launches and
// cancels the most attempts.
func TestRunAllocsIndependentOfEvents(t *testing.T) {
	const n = 256
	c := emuCluster(t, n, 0.5)
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"adapt/1rep", Config{Cluster: c}},
		{"adapt/1rep/redundant-K3", Config{Cluster: c, Speculation: SpeculationRedundant, RedundancyK: 3}},
	} {
		var allocs [2]float64
		var events [2]uint64
		for k, perNode := range []int{10, 100} {
			asn, err := placement.PlaceAll(pol, n*perNode, 1, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Assignment = asn
			allocs[k], events[k] = runAllocs(t, cfg, 2)
		}
		t.Logf("%s: %g allocations over %d events at 10 tasks per node, %g over %d at 100",
			tc.name, allocs[0], events[0], allocs[1], events[1])
		if events[1] < 2*events[0] {
			t.Fatalf("%s: the long run has %d events, the short one %d: the cells do not scale", tc.name, events[1], events[0])
		}
		if allocs[1] > allocs[0]+n {
			t.Errorf("%s: %g allocations at 100 tasks per node, want at most %g (those at 10, plus n): the event loop allocates",
				tc.name, allocs[1], allocs[0]+n)
		}
	}
}

// TestRunScenarioAllocs pins what a warm sim_scale-shaped cell (3072
// hosts, ten blocks per node, ADAPT, one replica) allocates, placement
// included: every block's holders are cut from one array, and the
// simulator re-slices a pooled arena, so what is left is one recovery
// distribution per node (cfg.Service) and a constant. The collector is
// off so that the pool keeps the arena from one cell to the next; under
// -race the pool drops a random quarter of what it is given, so no
// cell is sure to be warm and the bound is not checked.
func TestRunScenarioAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops arenas at random under -race")
	}
	const hosts = 3072
	sc := scaleScenario(t, hosts)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seed := uint64(0)
	allocs := testing.AllocsPerRun(3, func() {
		seed++
		if _, err := RunScenario(sc, stats.NewRNG(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(hosts + 64); allocs > limit {
		t.Fatalf("a warm RunScenario allocates %.0f times, want at most %.0f", allocs, limit)
	}
	t.Logf("%.0f allocations for %d hosts", allocs, hosts)
}
