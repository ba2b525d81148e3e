package adapt_test

import (
	"context"
	"math"
	"testing"

	adapt "github.com/adaptsim/adapt"
)

// The facade quick-start path from the package documentation.
func TestFacadeQuickStart(t *testing.T) {
	g := adapt.NewRNG(1)
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            32,
		InterruptedRatio: 0.5,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := adapt.NewAdaptPolicy(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adapt.RunScenario(adapt.Scenario{
		Config:   adapt.SimConfig{Cluster: c},
		Policy:   policy,
		Blocks:   32 * 10,
		Replicas: 1,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.TotalTasks != 320 {
		t.Fatalf("result = %+v", res)
	}
	if loc := res.Locality(); loc < 0 || loc > 1 {
		t.Fatalf("locality = %g", loc)
	}
}

func TestFacadeModel(t *testing.T) {
	a := adapt.FromMTBI(10, 4)
	want := math.Expm1(1.2) * (10 + 4/(1-0.4))
	if got := a.ExpectedTaskTime(12); math.Abs(got-want) > 1e-9 {
		t.Fatalf("E[T] = %g, want %g", got, want)
	}
	v, err := adapt.SimulateTaskTime(adapt.TaskSimConfig{Gamma: 5}, adapt.NewRNG(2))
	if err != nil || v != 5 {
		t.Fatalf("simulate: %g %v", v, err)
	}
}

func TestFacadeDFSAndMapReduce(t *testing.T) {
	g := adapt.NewRNG(3)
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            8,
		InterruptedRatio: 0.5,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := adapt.NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := adapt.NewDFSClient(nn, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	data, err := adapt.TeraGen(200, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = 25 * 100
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "in", data, true); err != nil {
		t.Fatal(err)
	}
	bounds, err := adapt.SampleBoundaries(data, 2, 0, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	job, err := adapt.TeraSortJob("in", "out", 2, bounds)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adapt.NewMREngine(nn, adapt.MREngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(job, g.Split())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]byte, 0, len(res.OutputFiles))
	for _, f := range res.OutputFiles {
		p, err := cl.ReadFileContext(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if err := adapt.CheckSorted(parts, 200); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTraces(t *testing.T) {
	g := adapt.NewRNG(4)
	set, err := adapt.GenerateTraces(adapt.DefaultSETITraceConfig(30), g)
	if err != nil {
		t.Fatal(err)
	}
	st := adapt.ComputeTraceStats(set)
	if st.Hosts != 30 {
		t.Fatalf("hosts = %d", st.Hosts)
	}
	c, err := adapt.ClusterFromTraces(set)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 30 {
		t.Fatalf("cluster = %d", c.Len())
	}
	sub, err := adapt.SampleClusterFromTraces(set, 10, g)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 10 {
		t.Fatalf("sample = %d", sub.Len())
	}
}

func TestFacadeThreshold(t *testing.T) {
	if got := adapt.PlacementThreshold(2560, 1, 128); got != 40 {
		t.Fatalf("threshold = %d", got)
	}
}
