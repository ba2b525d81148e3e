package hadoopsim

import (
	"fmt"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// The behaviour matrix shared by the golden runs (full runs at 64–512
// hosts, hashed) and the differential oracle (small clusters, stepped
// event by event): 4 speculation policies × 2 schedulers × RF 1–3 ×
// three cluster mixes, a handful of config variants, and multi-job
// workloads.

// matrixMix names a cluster shape and its size at the two scales.
type matrixMix struct {
	name         string
	goldenHosts  int
	oracleHosts  int
	tasksPerNode int
}

var matrixMixes = []matrixMix{
	// Trace-derived (λ, μ), interruptions injected parametrically:
	// the sim_scale shape.
	{"param", 512, 28, 6},
	// The same traces replayed verbatim (no parametric hazard, so the
	// predictive policy never fires).
	{"replay", 256, 20, 8},
	// Table 2 groups on half the nodes, the other half dedicated.
	// Nodes of one group share E[T] exactly, so equal-expected ties
	// arise from t = 0.
	{"emu", 64, 16, 20},
}

var (
	matrixPolicies   = []SpeculationPolicy{SpeculationReactive, SpeculationNone, SpeculationPredictive, SpeculationRedundant}
	matrixSchedulers = []SchedulerPolicy{SchedulerLocalityFirst, SchedulerAvailabilityAware}
)

// matrixCell is one simulated workload of the matrix.
type matrixCell struct {
	name     string
	mix      matrixMix
	spec     SpeculationPolicy
	sched    SchedulerPolicy
	replicas int
	// variant tweaks the config after the common fields are set.
	variant func(*Config)
	// rates, when set, makes compute rates heterogeneous.
	rates bool
	// jobs > 0 makes the cell a multi-job workload of that many jobs.
	jobs int
}

func matrixCells() []matrixCell {
	var cells []matrixCell
	for _, mix := range matrixMixes {
		for _, spec := range matrixPolicies {
			for _, sched := range matrixSchedulers {
				for rf := 1; rf <= 3; rf++ {
					cells = append(cells, matrixCell{
						name: fmt.Sprintf("%s/%s/%s/rf%d", mix.name, spec, sched, rf),
						mix:  mix, spec: spec, sched: sched, replicas: rf,
					})
				}
			}
		}
	}
	variants := []struct {
		name  string
		apply func(*Config)
		rates bool
	}{
		{"nosource", func(c *Config) { c.SourcePenalty = -1 }, false},
		{"noqueue", func(c *Config) { c.TransferQueueFactor = -1 }, false},
		{"fastnet", func(c *Config) { c.Network = netsim.FromMegabits(32) }, false},
		{"k3", func(c *Config) { c.RedundancyK = 3; c.RedundancyOverlap = -1 }, false},
		{"rates", nil, true},
	}
	for _, v := range variants {
		for _, base := range []struct {
			spec  SpeculationPolicy
			sched SchedulerPolicy
		}{
			{SpeculationReactive, SchedulerLocalityFirst},
			{SpeculationRedundant, SchedulerAvailabilityAware},
			{SpeculationPredictive, SchedulerLocalityFirst},
		} {
			cells = append(cells, matrixCell{
				name: fmt.Sprintf("emu/%s/%s/rf2/%s", base.spec, base.sched, v.name),
				mix:  matrixMixes[2], spec: base.spec, sched: base.sched, replicas: 2,
				variant: v.apply, rates: v.rates,
			})
		}
	}
	for _, mix := range []matrixMix{matrixMixes[0], matrixMixes[2]} {
		for _, spec := range matrixPolicies {
			for _, sched := range matrixSchedulers {
				cells = append(cells, matrixCell{
					name: fmt.Sprintf("%s/%s/%s/rf2/multijob", mix.name, spec, sched),
					mix:  mix, spec: spec, sched: sched, replicas: 2, jobs: 3,
				})
			}
		}
	}
	return cells
}

func (c matrixCell) seed() uint64 { return stats.DeriveSeed(7, stats.HashLabel(c.name)) }

// cluster builds the cell's cluster at the golden or the oracle size.
func (c matrixCell) cluster(tb testing.TB, oracle bool) *cluster.Cluster {
	tb.Helper()
	hosts := c.mix.goldenHosts
	if oracle {
		hosts = c.mix.oracleHosts
	}
	var cl *cluster.Cluster
	switch c.mix.name {
	case "param":
		cl = setiCluster(tb, hosts, false, c.seed())
	case "replay":
		cl = setiCluster(tb, hosts, true, c.seed())
	default:
		var err error
		cl, err = cluster.NewEmulation(cluster.EmulationConfig{Nodes: hosts, InterruptedRatio: 0.5, Shuffle: true},
			stats.NewRNG(c.seed()))
		if err != nil {
			tb.Fatal(err)
		}
	}
	if c.rates {
		nodes := cl.Nodes()
		for i := range nodes {
			nodes[i].ComputeRate = 0.5 + float64(i%4)*0.5
		}
		var err error
		if cl, err = cluster.New(nodes); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// config returns the cell's simulator configuration over cl, without
// an assignment.
func (c matrixCell) config(cl *cluster.Cluster) Config {
	cfg := Config{Cluster: cl, Speculation: c.spec, Scheduler: c.sched}
	if c.variant != nil {
		c.variant(&cfg)
	}
	return cfg
}

func (c matrixCell) policy(tb testing.TB, cl *cluster.Cluster) placement.Policy {
	tb.Helper()
	if c.mix.name == "replay" {
		return &placement.Random{Cluster: cl}
	}
	pol, err := placement.NewAdapt(cl, DefaultGamma)
	if err != nil {
		tb.Fatal(err)
	}
	return pol
}

// single returns the cell as a one-job Config with its blocks placed,
// and the RNG Run is to receive.
func (c matrixCell) single(tb testing.TB, oracle bool) (Config, *stats.RNG) {
	tb.Helper()
	cl := c.cluster(tb, oracle)
	g := stats.NewRNG(c.seed())
	asn, err := placement.PlaceAll(c.policy(tb, cl), cl.Len()*c.mix.tasksPerNode, c.replicas, g.Split())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := c.config(cl)
	cfg.Assignment = asn
	return cfg, g.Split()
}

// multi returns the cell as a multi-job workload: staggered arrivals,
// the last one after the cluster has begun to drain.
func (c matrixCell) multi(tb testing.TB, oracle bool) (MultiJobConfig, *stats.RNG) {
	tb.Helper()
	cl := c.cluster(tb, oracle)
	blocks := cl.Len() * c.mix.tasksPerNode / c.jobs
	mj := MultiJobConfig{Base: c.config(cl), DefaultPolicy: c.policy(tb, cl)}
	for j := 0; j < c.jobs; j++ {
		mj.Jobs = append(mj.Jobs, JobSpec{
			Name:     fmt.Sprintf("job%d", j),
			Blocks:   blocks,
			Replicas: c.replicas,
			Arrival:  float64(j) * 4 * DefaultGamma,
		})
	}
	return mj, stats.NewRNG(c.seed())
}
