package hadoopsim

import (
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

func TestSchedulerPolicyString(t *testing.T) {
	if SchedulerLocalityFirst.String() != "locality-first" {
		t.Fatal(SchedulerLocalityFirst.String())
	}
	if SchedulerAvailabilityAware.String() != "availability-aware" {
		t.Fatal(SchedulerAvailabilityAware.String())
	}
}

// The availability-aware scheduler must cut voluntary migrations
// (blocks moved for load balancing) relative to greedy stealing on a
// heterogeneous cluster with random placement, without slowing the
// job down materially.
func TestAvailabilityAwareSchedulerReducesMigrations(t *testing.T) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes: 48, InterruptedRatio: 0.5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol := &placement.Random{Cluster: c}

	run := func(sched SchedulerPolicy) (migrated int, elapsed float64) {
		var totalMig int
		var totalElapsed float64
		const trials = 4
		for seed := uint64(0); seed < trials; seed++ {
			sc := Scenario{
				Config:   Config{Cluster: c, Scheduler: sched},
				Policy:   pol,
				Blocks:   48 * 20,
				Replicas: 1,
			}
			res, err := RunScenario(sc, stats.NewRNG(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			totalMig += res.MigratedBlocks
			totalElapsed += res.Elapsed
		}
		return totalMig, totalElapsed / trials
	}

	stockMig, stockElapsed := run(SchedulerLocalityFirst)
	awareMig, awareElapsed := run(SchedulerAvailabilityAware)

	t.Logf("stock: %d migrations, %.0fs; aware: %d migrations, %.0fs",
		stockMig, stockElapsed, awareMig, awareElapsed)
	if awareMig >= stockMig {
		t.Fatalf("availability-aware scheduler migrated %d blocks, stock %d",
			awareMig, stockMig)
	}
	// It must not be a big regression on elapsed time either.
	if awareElapsed > 1.25*stockElapsed {
		t.Fatalf("availability-aware elapsed %.0fs vs stock %.0fs (>25%% regression)",
			awareElapsed, stockElapsed)
	}
}

// Rescue semantics: a blocked task (sole holder down, source fetches
// allowed) must still be stolen under the availability-aware policy.
func TestAvailabilityAwareRescuesBlockedTasks(t *testing.T) {
	tr := newTrace(10000, 5, 5000) // node 0 dies at t=5 and stays down
	nodes := []cluster.Node{{Trace: tr}, {}}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := &placement.Assignment{Nodes: 2}
	for b := 0; b < 4; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	cfg := Config{Cluster: c, Assignment: a, Scheduler: SchedulerAvailabilityAware}
	res, err := Run(cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// The job must finish long before node 0's 5000 s recovery: node
	// 1 rescues the blocked tasks from the source.
	if res.Elapsed >= 5000 {
		t.Fatalf("elapsed = %g, rescue did not happen", res.Elapsed)
	}
	if res.MigratedBlocks == 0 {
		t.Fatal("no rescues recorded")
	}
}

func TestStealWorthwhileHeuristic(t *testing.T) {
	// Construct a simulator state directly: thief is dedicated, the
	// holder is volatile with a deep backlog -> steal; holder healthy
	// with a short backlog -> don't steal.
	nodes := []cluster.Node{
		{},                               // 0: dedicated thief
		{Availability: mustAvail(10, 6)}, // 1: volatile holder
		{},                               // 2: healthy holder
	}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := &placement.Assignment{Nodes: 3}
	for b := 0; b < 20; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{1})
	}
	for b := 0; b < 2; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{2})
	}
	cfg := Config{Cluster: c, Assignment: a, Scheduler: SchedulerAvailabilityAware}
	full := cfg.withDefaults()
	s, err := newSimulator(full, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	s.submit(0, len(s.tasks))
	// Task held by the deeply backlogged volatile node 1: worth it.
	if !s.stealWorthwhile(0, &s.tasks[0], 1) {
		t.Error("should steal from backlogged volatile holder")
	}
	// Task held by healthy node 2 with backlog 2: in-place cost is
	// ~12 s, a steal costs ~67+12 s — not worth it.
	if s.stealWorthwhile(0, &s.tasks[20], 2) {
		t.Error("should not steal from short-queued healthy holder")
	}
	// Blocked task: always rescue.
	if !s.stealWorthwhile(0, &s.tasks[0], -1) {
		t.Error("blocked task must be rescued")
	}
}

func mustAvail(mtbi, mu float64) model.Availability {
	return model.FromMTBI(mtbi, mu)
}
