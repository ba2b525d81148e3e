package adapt_test

// One benchmark per table and figure of the paper's evaluation (§V),
// plus micro-benchmarks of the core machinery. The benchmark bodies
// run reduced-scale configurations that preserve the published
// shapes; custom metrics surface the headline quantities so
// `go test -bench=. -benchmem` doubles as a smoke reproduction:
//
//	adapt_s/op, random_s/op   mean simulated map-phase seconds
//	improvement_%             ADAPT gain over random at 1 replica
//	locality_%                data locality
//	migration_%               migration overhead ratio
//
// Full-scale reproduction lives in cmd/adapt-bench (-paper flag).

import (
	"testing"

	adapt "github.com/adaptsim/adapt"
)

// benchEmulation is the reduced Figures 3/4 configuration.
func benchEmulation(seed uint64) adapt.EmulationConfig {
	return adapt.EmulationConfig{
		Nodes:         32,
		BlocksPerNode: 20,
		Trials:        3,
		Seed:          seed,
	}
}

// benchSimulation is the reduced Figure 5 configuration. The paper's
// 100 tasks/node is kept: it fixes the job-length-to-MTBI ratio that
// controls failure incidence, so the reported shape metrics stay
// representative at the reduced host count.
func benchSimulation(seed uint64) adapt.SimulationConfig {
	return adapt.SimulationConfig{
		Hosts:        128,
		TasksPerNode: 100,
		Trials:       1,
		Seed:         seed,
	}
}

func BenchmarkTable1_TraceStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := adapt.Table1(adapt.Table1Config{Hosts: 1024, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Stats.MTBI.CoV(), "mtbi_cov")
			b.ReportMetric(res.Stats.Duration.CoV(), "duration_cov")
		}
	}
}

func BenchmarkModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := adapt.ModelValidation(adapt.ModelValidationConfig{
			Samples: 5000, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			for _, r := range rows {
				if e := r.RelErr; e > worst {
					worst = e
				} else if -e > worst {
					worst = -e
				}
			}
			b.ReportMetric(100*worst, "worst_relerr_%")
		}
	}
}

func BenchmarkHeadline_Adapt1ReplicaVsRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := adapt.Headline(benchEmulation(uint64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range cells {
				if c.Series.Strategy == adapt.StrategyAdapt && c.Series.Replicas == 1 {
					b.ReportMetric(100*c.ImprovementVsRandom1, "improvement_%")
					b.ReportMetric(100*c.Locality, "locality_%")
				}
			}
		}
	}
}

// emulationBench runs one Figure 3/4 sweep and reports the default-
// point elapsed and locality for the 1-replica series.
func emulationBench(b *testing.B, run func(adapt.EmulationConfig) (*adapt.ExperimentResult, error), defaultX string, reportLocality bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(benchEmulation(uint64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		rnd, ok1 := res.Cell(defaultX, adapt.ExperimentSeries{Strategy: adapt.StrategyRandom, Replicas: 1})
		adp, ok2 := res.Cell(defaultX, adapt.ExperimentSeries{Strategy: adapt.StrategyAdapt, Replicas: 1})
		if !ok1 || !ok2 {
			b.Fatalf("missing default point %q", defaultX)
		}
		if reportLocality {
			b.ReportMetric(100*rnd.Locality, "random_locality_%")
			b.ReportMetric(100*adp.Locality, "adapt_locality_%")
		} else {
			b.ReportMetric(rnd.Elapsed, "random_s")
			b.ReportMetric(adp.Elapsed, "adapt_s")
		}
	}
}

func BenchmarkFigure3a_ElapsedVsInterruptedRatio(b *testing.B) {
	emulationBench(b, adapt.Figure3a, "0.50", false)
}

func BenchmarkFigure3b_ElapsedVsBandwidth(b *testing.B) {
	emulationBench(b, adapt.Figure3b, "8", false)
}

func BenchmarkFigure3c_ElapsedVsNodes(b *testing.B) {
	emulationBench(b, adapt.Figure3c, "32", false)
}

func BenchmarkFigure4a_LocalityVsInterruptedRatio(b *testing.B) {
	emulationBench(b, adapt.Figure3a, "0.50", true)
}

func BenchmarkFigure4b_LocalityVsBandwidth(b *testing.B) {
	emulationBench(b, adapt.Figure3b, "8", true)
}

func BenchmarkFigure4c_LocalityVsNodes(b *testing.B) {
	emulationBench(b, adapt.Figure3c, "32", true)
}

// simulationBench runs one Figure 5 sweep and reports migration
// ratios at the given default point.
func simulationBench(b *testing.B, run func(adapt.SimulationConfig) (*adapt.ExperimentResult, error), defaultX string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := benchSimulation(uint64(i) + 1)
		cfg.Series = []adapt.ExperimentSeries{
			{Strategy: adapt.StrategyRandom, Replicas: 1},
			{Strategy: adapt.StrategyNaive, Replicas: 1},
			{Strategy: adapt.StrategyAdapt, Replicas: 1},
			{Strategy: adapt.StrategyRandom, Replicas: 2},
			{Strategy: adapt.StrategyAdapt, Replicas: 2},
		}
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		rnd, ok1 := res.Cell(defaultX, adapt.ExperimentSeries{Strategy: adapt.StrategyRandom, Replicas: 1})
		adp, ok2 := res.Cell(defaultX, adapt.ExperimentSeries{Strategy: adapt.StrategyAdapt, Replicas: 1})
		if !ok1 || !ok2 {
			b.Fatalf("missing default point %q", defaultX)
		}
		b.ReportMetric(100*rnd.Ratios.Migration, "random_migration_%")
		b.ReportMetric(100*adp.Ratios.Migration, "adapt_migration_%")
	}
}

func BenchmarkFigure5a_OverheadVsBandwidth(b *testing.B) {
	simulationBench(b, adapt.Figure5a, "8")
}

func BenchmarkFigure5b_OverheadVsBlockSize(b *testing.B) {
	simulationBench(b, adapt.Figure5b, "64")
}

func BenchmarkFigure5c_OverheadVsNodes(b *testing.B) {
	simulationBench(b, adapt.Figure5c, "128")
}

// --- micro-benchmarks of the core machinery ---------------------------------

func BenchmarkPlacementAdapt(b *testing.B) {
	g := adapt.NewRNG(1)
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes: 1024, InterruptedRatio: 0.5,
	}, g)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := adapt.NewAdaptPolicy(c, 12)
	if err != nil {
		b.Fatal(err)
	}
	const blocks = 1024 * 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.PlaceAll(pol, blocks, 2, adapt.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

func BenchmarkPlacementRandom(b *testing.B) {
	g := adapt.NewRNG(1)
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes: 1024, InterruptedRatio: 0.5,
	}, g)
	if err != nil {
		b.Fatal(err)
	}
	pol := adapt.NewRandomPolicy(c)
	const blocks = 1024 * 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.PlaceAll(pol, blocks, 2, adapt.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

func BenchmarkMapPhaseSimulation(b *testing.B) {
	g := adapt.NewRNG(1)
	c, err := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
		Nodes: 128, InterruptedRatio: 0.5,
	}, g)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := adapt.NewAdaptPolicy(c, 12)
	if err != nil {
		b.Fatal(err)
	}
	sc := adapt.Scenario{
		Config:   adapt.SimConfig{Cluster: c},
		Policy:   pol,
		Blocks:   128 * 20,
		Replicas: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.RunScenario(sc, adapt.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskModel(b *testing.B) {
	a := adapt.FromMTBI(10, 4)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += a.ExpectedTaskTime(12)
	}
	_ = sink
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := adapt.DefaultSETITraceConfig(512)
		if _, err := adapt.GenerateTraces(cfg, adapt.NewRNG(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
