package hadoopsim

import (
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
