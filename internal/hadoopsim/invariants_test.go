package hadoopsim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestSimulationInvariants drives randomized configurations through
// the simulator and checks the structural invariants that must hold
// for every run:
//
//   - every task completes exactly once (TotalTasks == blocks)
//   - locality is a valid fraction
//   - elapsed >= the ideal lower bound max(gamma, base/n)
//   - the overhead decomposition never exceeds the aggregate capacity
//   - all components are non-negative
func TestSimulationInvariants(t *testing.T) {
	err := quick.Check(func(seed uint16, nRaw, bpnRaw, ratioRaw, kRaw, bwRaw uint8) bool {
		nodes := int(nRaw)%24 + 4
		bpn := int(bpnRaw)%10 + 1
		ratio := float64(ratioRaw%4) / 4
		k := int(kRaw)%2 + 1
		bw := []float64{4, 8, 16, 32}[bwRaw%4]
		if k > nodes {
			k = nodes
		}

		g := stats.NewRNG(uint64(seed) + 1)
		c, err := cluster.NewEmulation(cluster.EmulationConfig{
			Nodes:            nodes,
			InterruptedRatio: ratio,
			Shuffle:          true,
		}, g.Split())
		if err != nil {
			return false
		}
		pol := &placement.Random{Cluster: c}
		blocks := nodes * bpn
		res, err := RunScenario(Scenario{
			Config: Config{
				Cluster: c,
				Network: netsim.FromMegabits(bw),
			},
			Policy:   pol,
			Blocks:   blocks,
			Replicas: k,
		}, g.Split())
		if err != nil {
			return false
		}

		if res.TotalTasks != blocks {
			return false
		}
		loc := res.Locality()
		if loc < 0 || loc > 1 || math.IsNaN(loc) {
			return false
		}
		lower := math.Max(DefaultGamma, float64(blocks)*DefaultGamma/float64(nodes))
		if res.Elapsed < lower-1e-9 {
			return false
		}
		b := res.Breakdown
		if b.Rework < 0 || b.Recovery < 0 || b.Migration < 0 || b.Misc < 0 {
			return false
		}
		aggregate := float64(nodes) * res.Elapsed
		sum := b.Base + b.Rework + b.Recovery + b.Migration + b.Misc
		return sum <= aggregate+1e-6
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnstableNodesSupported verifies that hosts whose estimated
// interruption process is unstable (λμ >= 1, effectively mostly-down
// hosts) simulate fine parametrically and that ADAPT routes all
// storage around them.
func TestUnstableNodesSupported(t *testing.T) {
	nodes := make([]cluster.Node, 8)
	// Two hosts that are down more than up.
	nodes[0].Availability = model.Availability{Lambda: 0.2, Mu: 10} // λμ = 2
	nodes[1].Availability = model.Availability{Lambda: 0.1, Mu: 15} // λμ = 1.5
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(5)
	asn, err := placement.PlaceAll(pol, 80, 1, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	counts := asn.CountPerNode()
	if counts[0] != 0 || counts[1] != 0 {
		t.Fatalf("unstable hosts received blocks: %v", counts)
	}
	res, err := Run(Config{Cluster: c, Assignment: asn}, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != 80 {
		t.Fatalf("tasks = %d", res.TotalTasks)
	}
}

// TestMOONStyleDedicatedNodes models the §VI observation that ADAPT
// benefits MOON-style deployments by treating dedicated nodes as
// ultra-reliable: with a few dedicated servers among volatile
// volunteers, ADAPT concentrates data on the dedicated tier.
func TestMOONStyleDedicatedNodes(t *testing.T) {
	nodes := make([]cluster.Node, 12)
	// 3 dedicated servers, 9 volatile volunteers.
	for i := 3; i < 12; i++ {
		nodes[i].Availability = model.FromMTBI(10, 6)
	}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(9)
	blocks := 120
	asn, err := placement.PlaceAll(pol, blocks, 1, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	counts := asn.CountPerNode()
	dedicated := counts[0] + counts[1] + counts[2]
	// The §IV-C threshold caps each node at m(k+1)/n = 20 blocks, so
	// the dedicated tier absorbs up to 60 of 120 — it must be at or
	// near its cap, far above its 25% population share.
	if dedicated < 55 {
		t.Fatalf("dedicated tier holds %d of %d blocks, want >= 55", dedicated, blocks)
	}

	// And the run should beat random placement.
	random := &placement.Random{Cluster: c}
	adaptRes, err := RunScenario(Scenario{
		Config: Config{Cluster: c}, Policy: pol, Blocks: blocks, Replicas: 1,
	}, stats.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	randomRes, err := RunScenario(Scenario{
		Config: Config{Cluster: c}, Policy: random, Blocks: blocks, Replicas: 1,
	}, stats.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	if adaptRes.Elapsed >= randomRes.Elapsed {
		t.Fatalf("adapt %.1fs not faster than random %.1fs on MOON topology",
			adaptRes.Elapsed, randomRes.Elapsed)
	}
}

// TestComputeRateHeterogeneity exercises the compute-rate extension:
// a fast node completes more tasks per unit time.
func TestComputeRateHeterogeneity(t *testing.T) {
	nodes := []cluster.Node{
		{ComputeRate: 2},
		{ComputeRate: 1},
	}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := &placement.Assignment{Nodes: 2}
	// 4 blocks each.
	for i := 0; i < 4; i++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{0})
	}
	for i := 0; i < 4; i++ {
		a.Replicas = append(a.Replicas, []cluster.NodeID{1})
	}
	// A fast network so stealing is cheap relative to execution.
	res, err := Run(Config{Cluster: c, Assignment: a, Speculation: SpeculationNone,
		Network: netsim.FromMegabits(2048), SourcePenalty: -1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 (rate 1) alone would need 48 s for its local work; node
	// 0 (rate 2) finishes its own 4 blocks in 24 s and then steals
	// cheaply, so the phase must end strictly before 48 s.
	if res.Elapsed >= 48 {
		t.Fatalf("elapsed = %g, want < 48", res.Elapsed)
	}
}
