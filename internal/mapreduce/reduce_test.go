package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/stats"
)

func TestReducerPlacementString(t *testing.T) {
	if ReducersRandom.String() != "random" {
		t.Fatal(ReducersRandom.String())
	}
	if ReducersAvailabilityAware.String() != "availability-aware" {
		t.Fatal(ReducersAvailabilityAware.String())
	}
}

// availability-aware reducers must land on the most reliable nodes.
func TestPlaceReducersAvailabilityAware(t *testing.T) {
	nodes := make([]cluster.Node, 6)
	// Nodes 0-3 volatile, 4-5 dedicated.
	for i := 0; i < 4; i++ {
		nodes[i].Availability = model.FromMTBI(10, 6)
	}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	hosts := placeReducers(c, 2, ReducersAvailabilityAware, stats.NewRNG(1))
	for _, h := range hosts {
		if int(h) < 4 {
			t.Fatalf("reducer placed on volatile node %d: %v", h, hosts)
		}
	}
	// More reducers than good nodes: round-robin over the ranking.
	many := placeReducers(c, 8, ReducersAvailabilityAware, stats.NewRNG(1))
	if len(many) != 8 {
		t.Fatalf("hosts = %v", many)
	}
}

// An availability-aware reduce phase should be no slower than random
// reducer placement on a heterogeneous cluster, and typically faster.
func TestAvailabilityAwareReducersFaster(t *testing.T) {
	build := func(mode ReducerPlacement, seed uint64) float64 {
		c, err := cluster.NewEmulation(cluster.EmulationConfig{
			Nodes: 8, InterruptedRatio: 0.5,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := dfs.NewNameNode(c)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := dfs.NewClient(nn, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		var in bytes.Buffer
		for i := 0; i < 256; i++ {
			fmt.Fprintf(&in, "rec%04d\n", i)
		}
		cl.BlockSize = 256
		if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", in.Bytes(), false); err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(nn, EngineConfig{
			ReducerMode:         mode,
			SimulatedBlockBytes: 64 * 1024 * 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(identityJob("in", "out", 4), stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.ReduceElapsed
	}

	var randomTotal, awareTotal float64
	for seed := uint64(1); seed <= 6; seed++ {
		randomTotal += build(ReducersRandom, seed)
		awareTotal += build(ReducersAvailabilityAware, seed)
	}
	if awareTotal > randomTotal {
		t.Fatalf("availability-aware reduce %.1fs slower than random %.1fs",
			awareTotal, randomTotal)
	}
}

func TestReducerHostsRecorded(t *testing.T) {
	_, cl, eng := newEngine(t, 4, 0)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", []byte("a\nb\n"), false); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(identityJob("in", "out", 3), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReducerHosts) != 3 {
		t.Fatalf("hosts = %v", res.ReducerHosts)
	}
	for _, h := range res.ReducerHosts {
		if int(h) < 0 || int(h) >= 4 {
			t.Fatalf("invalid host %d", h)
		}
	}
}
