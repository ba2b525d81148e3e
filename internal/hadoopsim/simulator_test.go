package hadoopsim

import (
	"math"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// dedicatedCluster builds n never-interrupted nodes.
func dedicatedCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func emuCluster(t *testing.T, n int, ratio float64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: n, InterruptedRatio: ratio}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// evenAssignment puts blocksPerNode blocks on every node (1 replica).
func evenAssignment(n, blocksPerNode int) *placement.Assignment {
	a := &placement.Assignment{Nodes: n}
	for i := 0; i < n; i++ {
		for b := 0; b < blocksPerNode; b++ {
			a.Replicas = append(a.Replicas, []cluster.NodeID{cluster.NodeID(i)})
		}
	}
	return a
}

func TestDedicatedClusterPerfectRun(t *testing.T) {
	// No interruptions, even placement: elapsed = blocksPerNode * γ,
	// locality = 1, zero overheads except misc = 0.
	n, bpn := 8, 5
	c := dedicatedCluster(t, n)
	cfg := Config{Cluster: c, Assignment: evenAssignment(n, bpn)}
	res, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	wantElapsed := float64(bpn) * DefaultGamma
	if math.Abs(res.Elapsed-wantElapsed) > 1e-9 {
		t.Fatalf("elapsed = %g, want %g", res.Elapsed, wantElapsed)
	}
	if res.Locality() != 1 {
		t.Fatalf("locality = %g, want 1", res.Locality())
	}
	b := res.Breakdown
	if b.Rework != 0 || b.Recovery != 0 || b.Migration != 0 {
		t.Fatalf("unexpected overheads: %+v", b)
	}
	if math.Abs(b.Misc) > 1e-6 {
		t.Fatalf("misc = %g, want 0 for a perfectly balanced run", b.Misc)
	}
	if res.Interruptions != 0 || res.MigratedBlocks != 0 {
		t.Fatalf("counters: %+v", res)
	}
}

func TestImbalancedPlacementTriggersStealing(t *testing.T) {
	// All blocks on node 0; other nodes must steal with migration.
	n := 4
	c := dedicatedCluster(t, n)
	a := &placement.Assignment{Nodes: n}
	m := 12
	for b := 0; b < m; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	cfg := Config{Cluster: c, Assignment: a}
	res, err := Run(cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedBlocks == 0 {
		t.Fatal("expected steals/migrations")
	}
	if res.Locality() >= 1 {
		t.Fatalf("locality = %g, want < 1", res.Locality())
	}
	// All steals here are voluntary load balancing on a failure-free
	// cluster: they count as migrated blocks but their transfer time is
	// scheduling cost (misc), not the paper's failure-induced migration
	// component.
	if res.Breakdown.Migration != 0 {
		t.Fatalf("failure-free run charged migration overhead %g", res.Breakdown.Migration)
	}
	if res.Breakdown.Misc <= 0 {
		t.Fatal("voluntary transfer time should land in misc")
	}
	// Greedy stealing over a 8 Mb/s network is expensive (the paper's
	// very point); with speculation the elapsed time stays within the
	// cost of a handful of serialized 64 MB fetches on the single
	// source uplink.
	full := cfg.withDefaults()
	maxReasonable := 6*full.TaskGamma()*float64(m)/float64(n) + 400
	if res.Elapsed > maxReasonable {
		t.Fatalf("elapsed = %g, want <= %g", res.Elapsed, maxReasonable)
	}
}

func TestInterruptionsProduceReworkAndRecovery(t *testing.T) {
	// Volatile single node with its own blocks and no one to steal
	// (n=1): every overhead must be rework or recovery.
	spec := []cluster.Node{{Availability: model.FromMTBI(30, 5)}}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: c, Assignment: evenAssignment(1, 50)}
	res, err := Run(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interruptions == 0 {
		t.Fatal("no interruptions with MTBI 30 over a 600+ second run")
	}
	if res.Breakdown.Rework <= 0 {
		t.Fatal("no rework recorded")
	}
	if res.Breakdown.Recovery <= 0 {
		t.Fatal("no recovery recorded")
	}
	if res.Breakdown.Migration != 0 {
		t.Fatal("migration on a single-node cluster")
	}
	// Elapsed must exceed the failure-free time.
	if res.Elapsed <= 50*DefaultGamma {
		t.Fatalf("elapsed = %g, want > %g", res.Elapsed, 50*DefaultGamma)
	}
}

func TestDeterminism(t *testing.T) {
	c := emuCluster(t, 32, 0.5)
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Config: Config{Cluster: c}, Policy: pol, Blocks: 32 * 10, Replicas: 2}
	r1, err := RunScenario(sc, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(sc, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("results differ:\n%+v\n%+v", r1, r2)
	}
}

func TestEnergyConservation(t *testing.T) {
	// The overhead decomposition must satisfy
	// n*elapsed >= base + rework + recovery + migration (misc >= 0
	// soaks the remainder) for a variety of scenarios.
	c := emuCluster(t, 16, 0.5)
	for seed := uint64(0); seed < 5; seed++ {
		pol := &placement.Random{Cluster: c}
		sc := Scenario{Config: Config{Cluster: c}, Policy: pol, Blocks: 160, Replicas: 1}
		res, err := RunScenario(sc, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		b := res.Breakdown
		agg := float64(c.Len()) * res.Elapsed
		sum := b.Base + b.Rework + b.Recovery + b.Migration + b.Misc
		if sum > agg+1e-6 {
			t.Fatalf("seed %d: components %g exceed aggregate %g", seed, sum, agg)
		}
		if b.Misc < 0 {
			t.Fatalf("seed %d: negative misc", seed)
		}
		if res.TotalTasks != 160 {
			t.Fatalf("tasks = %d", res.TotalTasks)
		}
	}
}

func TestReplicationImprovesVolatileRuns(t *testing.T) {
	// With half the nodes volatile, 2 replicas should beat 1 replica
	// under random placement (the paper's Figure 3 baseline gap).
	c := emuCluster(t, 32, 0.5)
	pol := &placement.Random{Cluster: c}
	elapsed := map[int]float64{}
	for _, k := range []int{1, 2} {
		sc := Scenario{Config: Config{Cluster: c}, Policy: pol, Blocks: 32 * 20, Replicas: k}
		agg, err := RunTrials(sc, 5, stats.NewRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		elapsed[k] = agg.Elapsed.Mean()
	}
	if elapsed[2] >= elapsed[1] {
		t.Fatalf("2 replicas (%.1fs) not faster than 1 replica (%.1fs)",
			elapsed[2], elapsed[1])
	}
}

func TestAdaptBeatsRandomAtOneReplica(t *testing.T) {
	// The paper's headline: at the default emulation point with one
	// replica, ADAPT improves elapsed time by a large margin (40% in
	// the paper; we require at least 15% to keep the test robust).
	c := emuCluster(t, 64, 0.5)
	blocks := 64 * 20

	random := &placement.Random{Cluster: c}
	adapt, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}

	run := func(pol placement.Policy) (elapsed, locality float64) {
		sc := Scenario{Config: Config{Cluster: c}, Policy: pol, Blocks: blocks, Replicas: 1}
		agg, err := RunTrials(sc, 5, stats.NewRNG(13))
		if err != nil {
			t.Fatal(err)
		}
		return agg.Elapsed.Mean(), agg.Locality.Mean()
	}
	randElapsed, randLoc := run(random)
	adaptElapsed, adaptLoc := run(adapt)

	t.Logf("random: %.1fs locality %.2f; adapt: %.1fs locality %.2f",
		randElapsed, randLoc, adaptElapsed, adaptLoc)
	if adaptElapsed >= 0.85*randElapsed {
		t.Fatalf("ADAPT %.1fs not at least 15%% better than random %.1fs",
			adaptElapsed, randElapsed)
	}
	if adaptLoc < randLoc {
		t.Fatalf("ADAPT locality %.3f below random %.3f", adaptLoc, randLoc)
	}
}

func TestSourceFetchForbiddenStillCompletes(t *testing.T) {
	// With SourcePenalty < 0 tasks must wait for holders to recover;
	// the run should still finish (recovery is finite).
	c := emuCluster(t, 8, 0.5)
	pol := &placement.Random{Cluster: c}
	sc := Scenario{
		Config:   Config{Cluster: c, SourcePenalty: -1},
		Policy:   pol,
		Blocks:   80,
		Replicas: 1,
	}
	res, err := RunScenario(sc, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != 80 {
		t.Fatalf("tasks = %d", res.TotalTasks)
	}
}

func TestSpeculationCounter(t *testing.T) {
	// A cluster with one very volatile node holding a share of blocks
	// and plenty of idle reliable nodes should trigger speculative
	// duplicates.
	nodes := make([]cluster.Node, 9)
	nodes[0].Availability = model.FromMTBI(15, 10)
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := &placement.Assignment{Nodes: 9}
	// 3 blocks on the volatile node, 1 on each reliable node.
	for b := 0; b < 3; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	for i := 1; i < 9; i++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{cluster.NodeID(i)})
	}
	var speculated bool
	for seed := uint64(0); seed < 10 && !speculated; seed++ {
		res, err := Run(Config{Cluster: c, Assignment: a}, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		speculated = res.SpeculativeTasks > 0
	}
	if !speculated {
		t.Fatal("speculation never triggered across 10 seeds")
	}
}

func TestConfigValidation(t *testing.T) {
	c := dedicatedCluster(t, 2)
	asn := evenAssignment(2, 1)
	g := stats.NewRNG(1)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil cluster", Config{Assignment: asn}},
		{"nil assignment", Config{Cluster: c}},
		{"empty assignment", Config{Cluster: c, Assignment: &placement.Assignment{}}},
		{"bad holder", Config{Cluster: c, Assignment: &placement.Assignment{
			Replicas: [][]cluster.NodeID{{5}},
		}}},
		{"no holders", Config{Cluster: c, Assignment: &placement.Assignment{
			Replicas: [][]cluster.NodeID{{}},
		}}},
		{"negative gamma", Config{Cluster: c, Assignment: asn, Gamma: -1}},
		{"negative block", Config{Cluster: c, Assignment: asn, BlockBytes: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg, g); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if _, err := Run(Config{Cluster: c, Assignment: asn}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestTaskGammaScalesWithBlockSize(t *testing.T) {
	cfg := Config{BlockBytes: 128 * 1024 * 1024, Gamma: 12}
	if got := cfg.TaskGamma(); math.Abs(got-24) > 1e-12 {
		t.Fatalf("taskGamma = %g, want 24", got)
	}
}

func TestRunTrialsAggregates(t *testing.T) {
	c := dedicatedCluster(t, 4)
	pol := &placement.Random{Cluster: c}
	sc := Scenario{Config: Config{Cluster: c}, Policy: pol, Blocks: 20, Replicas: 1}
	agg, err := RunTrials(sc, 3, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 3 {
		t.Fatalf("runs = %d", agg.Runs)
	}
	if agg.Elapsed.Count() != 3 {
		t.Fatalf("elapsed count = %d", agg.Elapsed.Count())
	}
	if _, err := RunTrials(sc, 0, stats.NewRNG(5)); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestTraceDrivenNodes(t *testing.T) {
	// Node 0 replays a fixed trace: down [10, 40). Its single task
	// (γ=12) cannot finish before t=10 if started at t=0? It can:
	// 12 < 10 is false, so the first attempt at [0, 12) is aborted at
	// t=10, then re-run at t=40 completing at 52 — unless another
	// node steals it. With source fetches forbidden and no replicas,
	// stealing needs the holder up, so the earliest remote completion
	// also waits for recovery.
	tr := traceWith(t, 1000, 10, 30)
	nodes := []cluster.Node{{Trace: tr}, {}}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := &placement.Assignment{Nodes: 2, Replicas: [][]cluster.NodeID{{0}}}
	cfg := Config{Cluster: c, Assignment: a, SourcePenalty: -1, Speculation: SpeculationNone}
	res, err := Run(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interruptions != 1 {
		t.Fatalf("interruptions = %d, want 1", res.Interruptions)
	}
	if res.Elapsed < 40 {
		t.Fatalf("elapsed = %g, want >= 40 (recovery-bound)", res.Elapsed)
	}
	if res.Breakdown.Rework <= 9.9 || res.Breakdown.Rework > 10.1 {
		t.Fatalf("rework = %g, want ~10 (work lost at the interruption)", res.Breakdown.Rework)
	}
}

func TestNetworkBandwidthMatters(t *testing.T) {
	// Same imbalanced scenario at 4 vs 32 Mb/s: faster network means
	// less elapsed time (Figure 3b's mechanism).
	n := 4
	c := dedicatedCluster(t, n)
	a := &placement.Assignment{Nodes: n}
	for b := 0; b < 12; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	elapsed := map[float64]float64{}
	for _, mbps := range []float64{4, 32} {
		cfg := Config{Cluster: c, Assignment: a, Network: netsim.FromMegabits(mbps)}
		res, err := Run(cfg, stats.NewRNG(21))
		if err != nil {
			t.Fatal(err)
		}
		elapsed[mbps] = res.Elapsed
	}
	if elapsed[32] >= elapsed[4] {
		t.Fatalf("32 Mb/s (%.1fs) not faster than 4 Mb/s (%.1fs)",
			elapsed[32], elapsed[4])
	}
}

func TestMiscIncludesIdleTail(t *testing.T) {
	// Two nodes, all work on node 0, forbidden migration (source
	// penalty < 0 and no second replica) — node 1 idles the whole
	// phase, so misc ≈ elapsed.
	c := dedicatedCluster(t, 2)
	a := &placement.Assignment{Nodes: 2}
	for b := 0; b < 5; b++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	// Make stealing unattractive by an enormous block (transfer would
	// dominate); simpler: disallow source fetch and give node 1 no
	// replicas — but peer stealing from an up holder is still
	// possible, so instead verify misc > 0 with stealing disabled via
	// huge bandwidth penalty: use tiny bandwidth.
	cfg := Config{
		Cluster:       c,
		Assignment:    a,
		Network:       netsim.FromMegabits(0.001),
		Speculation:   SpeculationNone,
		SourcePenalty: -1,
	}
	res, err := Run(cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Misc <= 0 {
		t.Fatalf("misc = %g, want > 0 (idle second node)", res.Breakdown.Misc)
	}
}

func traceWith(t *testing.T, horizon float64, start, dur float64) *tracePkgTrace {
	t.Helper()
	return newTrace(horizon, start, dur)
}

func BenchmarkSimulator128Nodes(b *testing.B) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: 128, InterruptedRatio: 0.5}, nil)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		b.Fatal(err)
	}
	sc := Scenario{Config: Config{Cluster: c}, Policy: pol, Blocks: 128 * 20, Replicas: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(sc, stats.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = metrics.RunResult{} // keep import when benches are filtered
