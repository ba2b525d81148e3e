package hadoopsim

import (
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

func TestParseSpeculationPolicyRoundTrip(t *testing.T) {
	for _, p := range []SpeculationPolicy{
		SpeculationReactive, SpeculationNone, SpeculationPredictive, SpeculationRedundant,
	} {
		got, err := ParseSpeculationPolicy(p.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	}
	if p, err := ParseSpeculationPolicy("off"); err != nil || p != SpeculationNone {
		t.Fatalf("off = %v, %v", p, err)
	}
	if _, err := ParseSpeculationPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := Run(Config{
		Cluster:     dedicatedCluster(t, 2),
		Assignment:  evenAssignment(2, 1),
		Speculation: SpeculationPolicy(99),
	}, stats.NewRNG(1)); err == nil {
		t.Fatal("unknown policy value accepted by Run")
	}
}

func TestPredictiveWithoutInterruptionsAddsNoOverhead(t *testing.T) {
	// Property (ISSUE satellite): with interruptions disabled the
	// predictive policy must never lengthen the schedule. On a
	// dedicated cluster every node has zero hazard, so no backup ever
	// qualifies and the schedule is exactly the no-speculation one —
	// zero overhead, the tightest bound.
	n := 8
	c := dedicatedCluster(t, n)
	a := &placement.Assignment{Nodes: n}
	// Imbalanced placement: node 0 hoards half the blocks so stealing
	// and straggling are in play.
	for b := 0; b < 4*n; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	for i := 0; i < n; i++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{cluster.NodeID(i)})
	}
	for seed := uint64(0); seed < 5; seed++ {
		pred, err := Run(Config{Cluster: c, Assignment: a, Speculation: SpeculationPredictive},
			stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		none, err := Run(Config{Cluster: c, Assignment: a, Speculation: SpeculationNone},
			stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if pred.SpeculativeTasks != 0 {
			t.Fatalf("seed %d: predictive launched %d backups on a hazard-free cluster",
				seed, pred.SpeculativeTasks)
		}
		if pred != none {
			t.Fatalf("seed %d: predictive diverged from no-speculation without interruptions:\n%+v\n%+v",
				seed, pred, none)
		}
	}
}

func TestRedundantK1EqualsNoSpeculationExactly(t *testing.T) {
	// Property (ISSUE satellite): a redundancy budget of one attempt
	// per task IS the no-speculation schedule — bit-identical results,
	// interruptions and all.
	c := emuCluster(t, 24, 0.5)
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		run := func(cfg Config) metrics.RunResult {
			t.Helper()
			sc := Scenario{Config: cfg, Policy: pol, Blocks: 24 * 8, Replicas: 2}
			res, err := RunScenario(sc, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		redundant := run(Config{Cluster: c, Speculation: SpeculationRedundant, RedundancyK: 1})
		none := run(Config{Cluster: c, Speculation: SpeculationNone})
		if redundant != none {
			t.Fatalf("seed %d: redundant K=1 diverged from no-speculation:\n%+v\n%+v",
				seed, redundant, none)
		}
	}
}

func TestRedundantFirstFinisherCancelsSiblings(t *testing.T) {
	// Redundant duplicates must show up in the accounting: cancelled
	// attempts, wasted seconds, and journal tallies agreeing with the
	// RunResult counters.
	c := emuCluster(t, 16, 0.5)
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{}
	sc := Scenario{
		Config: Config{
			Cluster:           c,
			Speculation:       SpeculationRedundant,
			RedundancyK:       2,
			RedundancyOverlap: -1, // launch all attempts immediately
			Journal:           j,
		},
		Policy:   pol,
		Blocks:   16 * 4,
		Replicas: 2,
	}
	res, err := RunScenario(sc, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.AttemptsCancelled == 0 {
		t.Fatal("redundant K=2 with zero stagger cancelled no attempts")
	}
	if res.WastedSeconds <= 0 {
		t.Fatalf("wasted work = %g, want > 0 with cancelled duplicates", res.WastedSeconds)
	}
	acc := j.Attempts()
	if acc.Launched != res.AttemptsLaunched {
		t.Fatalf("journal launched %d != result %d", acc.Launched, res.AttemptsLaunched)
	}
	if acc.Cancelled != res.AttemptsCancelled {
		t.Fatalf("journal cancelled %d != result %d", acc.Cancelled, res.AttemptsCancelled)
	}
	if acc.Speculative != res.SpeculativeTasks {
		t.Fatalf("journal speculative %d != result %d", acc.Speculative, res.SpeculativeTasks)
	}
	if acc.Launched < res.TotalTasks+res.AttemptsCancelled {
		t.Fatalf("launched %d < tasks %d + cancelled %d", acc.Launched, res.TotalTasks, res.AttemptsCancelled)
	}
}

// tieConfig builds a forced first-finisher tie: every node holds the
// single block, redundant launches one attempt per node at t=0 at
// identical rates, so all attempts complete at the exact same
// instant.
func tieConfig(t *testing.T, holders []cluster.NodeID) Config {
	t.Helper()
	n := len(holders)
	c := dedicatedCluster(t, n)
	a := &placement.Assignment{Nodes: n, Replicas: [][]cluster.NodeID{holders}}
	return Config{
		Cluster:           c,
		Assignment:        a,
		Speculation:       SpeculationRedundant,
		RedundancyK:       n,
		RedundancyOverlap: -1,
	}
}

func TestSiblingTieBreakIsDeterministic(t *testing.T) {
	// Regression (ISSUE satellite): when sibling attempts finish at the
	// exact same instant, the winner must be a function of the seed —
	// the lowest node id — never of event-queue insertion order. The
	// holder list is permuted to vary the attempt launch order, which
	// is precisely the insertion order of the tied completion timers.
	perms := [][]cluster.NodeID{
		{0, 1, 2},
		{2, 1, 0},
		{1, 2, 0},
	}
	for seed := uint64(0); seed < 3; seed++ {
		for _, holders := range perms {
			j := &Journal{}
			cfg := tieConfig(t, holders)
			cfg.Journal = j
			res, err := Run(cfg, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalTasks != 1 || res.AttemptsCancelled != 2 {
				t.Fatalf("holders %v: unexpected shape %+v", holders, res)
			}
			winner := -1
			for _, e := range j.Events {
				if e.Kind == EventTaskComplete {
					winner = e.Node
				}
			}
			if winner != 0 {
				t.Fatalf("seed %d holders %v: winner = node %d, want node 0 (lowest id wins ties)",
					seed, holders, winner)
			}
		}
	}
}

func TestSiblingTieBreakSeedReplay(t *testing.T) {
	// Same seed, same config => identical journal, event for event.
	for _, holders := range [][]cluster.NodeID{{0, 1, 2}, {2, 0, 1}} {
		j1, j2 := &Journal{}, &Journal{}
		cfg1 := tieConfig(t, holders)
		cfg1.Journal = j1
		cfg2 := tieConfig(t, holders)
		cfg2.Journal = j2
		r1, err := Run(cfg1, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(cfg2, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("holders %v: results differ:\n%+v\n%+v", holders, r1, r2)
		}
		if len(j1.Events) != len(j2.Events) {
			t.Fatalf("holders %v: journal lengths differ: %d vs %d",
				holders, len(j1.Events), len(j2.Events))
		}
		for i := range j1.Events {
			if j1.Events[i] != j2.Events[i] {
				t.Fatalf("holders %v: event %d differs: %+v vs %+v",
					holders, i, j1.Events[i], j2.Events[i])
			}
		}
	}
}

func TestPredictiveBeatsReactiveUnderHeavyInterruption(t *testing.T) {
	// The tentpole's behavioral claim at simulator level: under the
	// hottest Table-2 group, launching backups before the expected
	// interruption horizon beats waiting for stragglers.
	groups := []cluster.Group{{MTBI: 10, Service: 8}}
	c, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes:            32,
		InterruptedRatio: 0.5,
		Groups:           groups,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(spec SpeculationPolicy) float64 {
		sc := Scenario{
			Config:   Config{Cluster: c, Speculation: spec},
			Policy:   pol,
			Blocks:   32 * 10,
			Replicas: 3,
		}
		agg, err := RunTrials(sc, 5, stats.NewRNG(31))
		if err != nil {
			t.Fatal(err)
		}
		return agg.Elapsed.Mean()
	}
	reactive := mean(SpeculationReactive)
	predictive := mean(SpeculationPredictive)
	t.Logf("reactive %.1fs, predictive %.1fs", reactive, predictive)
	if predictive >= reactive {
		t.Fatalf("predictive (%.1fs) not faster than reactive (%.1fs) under MTBI=10 svc=8",
			predictive, reactive)
	}
}

func TestSpeculationBackoffDisabledDegradesGracefully(t *testing.T) {
	// Negative SpeculationBackoff turns off retry polling; the run must
	// still complete (nodes fall back to event-driven wakeups).
	c := emuCluster(t, 12, 0.5)
	pol := &placement.Random{Cluster: c}
	for _, spec := range []SpeculationPolicy{SpeculationPredictive, SpeculationRedundant} {
		sc := Scenario{
			Config:   Config{Cluster: c, Speculation: spec, SpeculationBackoff: -1},
			Policy:   pol,
			Blocks:   60,
			Replicas: 1,
		}
		res, err := RunScenario(sc, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTasks != 60 {
			t.Fatalf("%v: tasks = %d, want 60", spec, res.TotalTasks)
		}
	}
}
