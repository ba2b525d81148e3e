package adapt_test

// Ablation benchmarks for the design choices called out in DESIGN.md:
// each pair/group isolates one knob of ADAPT or the simulator and
// reports the resulting elapsed time so the cost/benefit of the
// paper's choices is measurable.

import (
	"testing"

	adapt "github.com/adaptsim/adapt"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

func ablationCluster(b *testing.B) *adapt.Cluster {
	b.Helper()
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes:            64,
		InterruptedRatio: 0.5,
	}, adapt.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func runAblationScenario(b *testing.B, sc adapt.Scenario, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		agg, err := adapt.RunTrials(sc, 3, adapt.NewRNG(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(agg.Elapsed.Mean(), metric)
			b.ReportMetric(100*agg.Locality.Mean(), "locality_%")
		}
	}
}

// BenchmarkAblationCollision compares the paper's by-rate collision
// resolution in Algorithm 1's hash table against the exact by-overlap
// alternative.
func BenchmarkAblationCollision(b *testing.B) {
	c := ablationCluster(b)
	for _, mode := range []placement.CollisionMode{
		placement.CollisionByRate, placement.CollisionByOverlap,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			pol, err := placement.NewAdapt(c, 12)
			if err != nil {
				b.Fatal(err)
			}
			pol.Mode = mode
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c},
				Policy:   pol,
				Blocks:   64 * 20,
				Replicas: 1,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}

// BenchmarkAblationSpeculation measures the contribution of
// speculative straggler duplication.
func BenchmarkAblationSpeculation(b *testing.B) {
	c := ablationCluster(b)
	for _, spec := range []adapt.SpeculationPolicy{adapt.SpeculationReactive, adapt.SpeculationNone} {
		name := "on"
		if spec == adapt.SpeculationNone {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			pol, err := placement.NewAdapt(c, 12)
			if err != nil {
				b.Fatal(err)
			}
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c, Speculation: spec},
				Policy:   pol,
				Blocks:   64 * 20,
				Replicas: 1,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}

// BenchmarkAblationThreshold measures the §IV-C capacity cap's effect
// on ADAPT (the cap trades a little completion-time balance for
// storage fairness).
func BenchmarkAblationThreshold(b *testing.B) {
	c := ablationCluster(b)
	for _, disable := range []bool{false, true} {
		name := "capped"
		if disable {
			name = "uncapped"
		}
		b.Run(name, func(b *testing.B) {
			pol, err := placement.NewAdapt(c, 12)
			if err != nil {
				b.Fatal(err)
			}
			pol.DisableThreshold = disable
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c},
				Policy:   pol,
				Blocks:   64 * 20,
				Replicas: 1,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}

// BenchmarkAblationReplicaPolicy compares weighting every replica
// (the default) against stock-HDFS uniform secondary replicas.
func BenchmarkAblationReplicaPolicy(b *testing.B) {
	c := ablationCluster(b)
	for _, uniform := range []bool{false, true} {
		name := "weighted-replicas"
		if uniform {
			name = "uniform-replicas"
		}
		b.Run(name, func(b *testing.B) {
			pol, err := placement.NewAdapt(c, 12)
			if err != nil {
				b.Fatal(err)
			}
			pol.UniformReplicas = uniform
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c},
				Policy:   pol,
				Blocks:   64 * 20,
				Replicas: 2,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}

// BenchmarkAblationSourceFetch compares the bounded source re-ingest
// escape (default) against strict Hadoop semantics where a task whose
// every replica holder is down must wait for a recovery.
func BenchmarkAblationSourceFetch(b *testing.B) {
	c := ablationCluster(b)
	for _, penalty := range []float64{hadoopsim.DefaultSourcePenalty, -1} {
		name := "reingest-2x"
		if penalty < 0 {
			name = "wait-for-recovery"
		}
		b.Run(name, func(b *testing.B) {
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c, SourcePenalty: penalty},
				Policy:   adapt.NewRandomPolicy(c),
				Blocks:   64 * 20,
				Replicas: 1,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}

// BenchmarkAblationServiceDistribution checks the model's M/G/1
// robustness: exponential vs deterministic recovery times.
func BenchmarkAblationServiceDistribution(b *testing.B) {
	c := ablationCluster(b)
	factories := map[string]hadoopsim.ServiceFactory{
		"exponential":   hadoopsim.ExponentialService,
		"deterministic": func(a model.Availability) (stats.Distribution, error) { return stats.NewDeterministic(a.Mu), nil },
	}
	for _, name := range []string{"exponential", "deterministic"} {
		b.Run(name, func(b *testing.B) {
			pol, err := placement.NewAdapt(c, 12)
			if err != nil {
				b.Fatal(err)
			}
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c, Service: factories[name]},
				Policy:   pol,
				Blocks:   64 * 20,
				Replicas: 1,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}

// BenchmarkAblationScheduler compares stock locality-first stealing
// against the availability-aware scheduling extension (paper §VII
// future work) under random placement, where scheduling matters most.
func BenchmarkAblationScheduler(b *testing.B) {
	c := ablationCluster(b)
	for _, sched := range []adapt.SchedulerPolicy{
		adapt.SchedulerLocalityFirst, adapt.SchedulerAvailabilityAware,
	} {
		b.Run(sched.String(), func(b *testing.B) {
			sc := adapt.Scenario{
				Config:   adapt.SimConfig{Cluster: c, Scheduler: sched},
				Policy:   adapt.NewRandomPolicy(c),
				Blocks:   64 * 20,
				Replicas: 1,
			}
			runAblationScenario(b, sc, "elapsed_s")
		})
	}
}
