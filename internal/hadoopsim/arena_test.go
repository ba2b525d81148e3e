package hadoopsim

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestPooledArenaLeaksNothing runs scenario A, then B, then a run that
// fails halfway, then A again on one pooled arena, and requires both A
// runs, journal included, to be bit-identical to A on a fresh arena,
// and B to B on a fresh one. B differs from A in every dimension an
// arena is sized or set up by: fewer nodes but more tasks, three
// replicas instead of one, redundant instead of reactive speculation,
// parametric instead of trace-driven interruptions, and two jobs
// instead of one. The failing run leaves timers pending and attempts
// running when its arena goes back.
func TestPooledArenaLeaksNothing(t *testing.T) {
	const nA, nB = 96, 48
	ca := setiCluster(t, nA, true, 1)
	pa, err := placement.NewAdapt(ca, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	type runA struct {
		res    metrics.RunResult
		events []Event
	}
	a := func() runA {
		j := &Journal{}
		sc := Scenario{Config: Config{Cluster: ca, Journal: j}, Policy: pa, Blocks: nA * 20, Replicas: 1}
		res, err := RunScenario(sc, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		return runA{res, j.Events}
	}
	cb, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: nB, InterruptedRatio: 0.5, Shuffle: true}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	const mB = 60 * nB
	b := func() *MultiJobResult {
		res, err := RunMultiJob(MultiJobConfig{
			Base:          Config{Cluster: cb, Speculation: SpeculationRedundant, RedundancyK: 3},
			DefaultPolicy: &placement.Random{Cluster: cb},
			Jobs: []JobSpec{
				{Name: "first", Blocks: mB / 2, Replicas: 3},
				{Name: "second", Blocks: mB / 2, Replicas: 3, Arrival: 150},
			},
		}, stats.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Two collections empty the pool, so each of these runs sets up a
	// fresh simulator.
	runtime.GC()
	runtime.GC()
	freshA := a()
	runtime.GC()
	runtime.GC()
	freshB := b()

	// One P and no collector: every run below takes the arena the one
	// before it released.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a1 := a()
	b1 := b()
	// An outage that never ends cannot be scheduled: the run stops at
	// the first interruption.
	endless := func(model.Availability) (stats.Distribution, error) { return stats.NewDeterministic(math.Inf(1)), nil }
	failing := Scenario{Config: Config{Cluster: cb, Service: endless}, Policy: &placement.Random{Cluster: cb}, Blocks: mB, Replicas: 1}
	if _, err := RunScenario(failing, stats.NewRNG(7)); err == nil {
		t.Fatal("a run with an endless outage succeeded")
	}
	if s := arenas.Get().(*simulator); cap(s.tasks) < mB {
		if !raceEnabled {
			t.Fatalf("the failed run left no arena for A's second run (tasks cap %d, want >= %d)", cap(s.tasks), mB)
		}
	} else {
		arenas.Put(s)
	}
	a2 := a()

	for _, got := range []struct {
		name string
		run  runA
	}{{"first A", a1}, {"second A", a2}} {
		if got.run.res != freshA.res {
			t.Errorf("%s on a pooled arena: %+v, on a fresh one %+v", got.name, got.run.res, freshA.res)
		}
		if !slices.Equal(got.run.events, freshA.events) {
			t.Errorf("%s on a pooled arena journals %d events, on a fresh one %d, or they differ",
				got.name, len(got.run.events), len(freshA.events))
		}
	}
	if !reflect.DeepEqual(b1, freshB) {
		t.Errorf("B on a pooled arena: %+v, on a fresh one %+v", b1, freshB)
	}
}
