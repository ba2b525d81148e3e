package hadoopsim

import (
	"math"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// The whole-simulator fidelity check against the paper's analytic
// model: a single volatile node processing its own blocks serially
// (no stealing possible, no speculation) must take ≈ m·E[T] in
// expectation. This closes the loop from eq. (5) through the
// event-driven machinery.
func TestSimulatorMatchesModelSingleNode(t *testing.T) {
	cases := []struct{ mtbi, mu float64 }{
		{10, 4}, {20, 8}, {50, 10},
	}
	const blocks = 60
	const trials = 40
	for _, c := range cases {
		a := model.FromMTBI(c.mtbi, c.mu)
		want := float64(blocks) * a.ExpectedTaskTime(DefaultGamma)

		cl, err := cluster.New([]cluster.Node{{Availability: a}})
		if err != nil {
			t.Fatal(err)
		}
		asn := evenAssignment(1, blocks)
		var sum stats.Summary
		for seed := uint64(0); seed < trials; seed++ {
			res, err := Run(Config{
				Cluster:     cl,
				Assignment:  asn,
				Speculation: SpeculationNone,
			}, stats.NewRNG(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			sum.Add(res.Elapsed)
		}
		got := sum.Mean()
		tol := 6 * sum.StdErr()
		if tol < 0.05*want {
			tol = 0.05 * want
		}
		if math.Abs(got-want) > tol {
			t.Errorf("MTBI=%g mu=%g: simulated %.1f s vs model %.1f s (tol %.1f)",
				c.mtbi, c.mu, got, want, tol)
		}
	}
}

// Trace replay fidelity: the simulator's up/down behavior must match
// the trace's own DownAt semantics — a task started while the trace
// says the node is up completes iff no trace event interrupts it.
func TestTraceReplayMatchesDownAt(t *testing.T) {
	tr := &trace.Trace{
		Host:    "h",
		Horizon: 10000,
		Events: []trace.Event{
			{Start: 30, Duration: 10},
			{Start: 35, Duration: 20}, // queues FCFS: outage [30, 60)
			{Start: 100, Duration: 5},
		},
	}
	nodes := []cluster.Node{{Trace: tr}}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Two blocks: with γ=12, execution timeline on one node is
	// [0,12), [12,24) done before the outage at 30; then nothing
	// remains. Use 5 blocks to force execution across the outage:
	// [0,12) [12,24) [24,30-abort] then outage [30,60) (FCFS
	// extension), resume [60,72) [72,84) [84,96).
	asn := evenAssignment(1, 5)
	j := &Journal{}
	res, err := Run(Config{
		Cluster:       c,
		Assignment:    asn,
		Speculation:   SpeculationNone,
		SourcePenalty: -1,
		Journal:       j,
	}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Outage [30,60): 6 s of rework from the aborted third attempt.
	if math.Abs(res.Breakdown.Rework-6) > 1e-9 {
		t.Fatalf("rework = %g, want 6", res.Breakdown.Rework)
	}
	// Elapsed: 24 (two tasks) + abort at 30 + outage to 60 + 3 tasks
	// of 12 = 96. The third trace event at 100 lands after the run.
	if math.Abs(res.Elapsed-96) > 1e-9 {
		t.Fatalf("elapsed = %g, want 96", res.Elapsed)
	}
	if res.Interruptions != 2 {
		t.Fatalf("interruptions seen = %d, want 2 (third is after completion)", res.Interruptions)
	}
	// Cross-check against the trace's own semantics.
	if !tr.DownAt(45) || tr.DownAt(60) {
		t.Fatal("trace DownAt disagrees with the expected outage window")
	}
	// Journal recovery event at exactly 60.
	var recoveries []float64
	for _, e := range j.Events {
		if e.Kind == EventRecovery {
			recoveries = append(recoveries, e.Time)
		}
	}
	if len(recoveries) != 1 || math.Abs(recoveries[0]-60) > 1e-9 {
		t.Fatalf("recoveries = %v, want [60]", recoveries)
	}
}

// Placement-through-simulation consistency: every node that executed
// a "local" task must actually hold the block per the assignment.
func TestLocalityAccountingConsistent(t *testing.T) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes: 12, InterruptedRatio: 0.5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pol := &placement.Random{Cluster: c}
	asn, err := placement.PlaceAll(pol, 120, 2, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{}
	res, err := Run(Config{Cluster: c, Assignment: asn, Journal: j}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// Recount locality from the journal and compare with the
	// simulator's own accounting.
	local := 0
	for _, e := range j.Events {
		if e.Kind != EventTaskComplete {
			continue
		}
		for _, h := range asn.Replicas[e.Task] {
			if int(h) == e.Node {
				local++
				break
			}
		}
	}
	if local != res.LocalTasks {
		t.Fatalf("journal recount %d != simulator %d", local, res.LocalTasks)
	}
}
