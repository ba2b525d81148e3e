package hadoopsim

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// setiCluster builds the cluster the paper-scale experiments run on:
// generated SETI@home-style traces, time-compressed to a pooled mean
// MTBI of 3000 s over a 50000 s window (internal/experiments'
// defaults and the benchmark's sim_scale workload). With replay false
// the hosts keep their estimated (λ, μ) and drop the trace, so the
// simulator injects interruptions parametrically.
func setiCluster(tb testing.TB, hosts int, replay bool, seed uint64) *cluster.Cluster {
	tb.Helper()
	gen := trace.DefaultSETIConfig(hosts)
	gen.TimeScale = 3000 / trace.SETIMTBIMean
	gen.Horizon = 50000 / gen.TimeScale
	set, err := trace.Generate(gen, stats.NewRNG(seed))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cluster.NewFromTraces(set)
	if err != nil {
		tb.Fatal(err)
	}
	if !replay {
		c = c.WithoutTraces()
	}
	return c
}

// scaleScenario is one sim_scale-shaped cell: Table 4 parameters,
// ten tasks per node, ADAPT placement, one replica.
func scaleScenario(tb testing.TB, hosts int) Scenario {
	tb.Helper()
	c := setiCluster(tb, hosts, false, 1)
	pol, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		tb.Fatal(err)
	}
	return Scenario{
		Config:   Config{Cluster: c, Network: netsim.FromMegabits(DefaultBandwidthMbps)},
		Policy:   pol,
		Blocks:   hosts * 10,
		Replicas: 1,
	}
}

// BenchmarkRunScale is the scale curve: the map phase of one adapt/1rep
// cell at the paper's host counts, reporting the wall cost and the
// allocations of one journal-visible simulator event. Near-linear means
// us/event stays within a small factor from 1024 to 16384 hosts.
func BenchmarkRunScale(b *testing.B) {
	for _, hosts := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			benchRun(b, scaleScenario(b, hosts))
		})
	}
}

// BenchmarkRunEmulation is one trial of each sim_emulation series on
// one thread: the Table 2 emulation at 256 nodes, half of them
// interrupted, 100 tasks per node. Its queues are short, so the cost
// per event (event heap, source closing, netsim) dominates, and the
// three-replica series close and reopen the most sources.
func BenchmarkRunEmulation(b *testing.B) {
	const hosts = 256
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: hosts, InterruptedRatio: 0.5, Shuffle: true}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	adapt, err := placement.NewAdapt(c, DefaultGamma)
	if err != nil {
		b.Fatal(err)
	}
	for _, series := range []struct {
		name     string
		pol      placement.Policy
		replicas int
	}{
		{"random/3rep", &placement.Random{Cluster: c}, 3},
		{"adapt/1rep", adapt, 1},
		{"adapt/3rep", adapt, 3},
	} {
		b.Run(series.name, func(b *testing.B) {
			benchRun(b, Scenario{
				Config:   Config{Cluster: c},
				Policy:   series.pol,
				Blocks:   hosts * 100,
				Replicas: series.replicas,
			})
		})
	}
}

// benchRun times Run on sc, reporting the wall cost and the
// allocations of one journal-visible simulator event.
func benchRun(b *testing.B, sc Scenario) {
	events := 0
	var mallocs uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Placement is not the simulator's: time Run alone, as the
		// benchmark's hadoopsim.us_per_event does.
		b.StopTimer()
		g := stats.NewRNG(uint64(i) + 1)
		asn, err := placement.PlaceAll(sc.Policy, sc.Blocks, sc.Replicas, g.Split())
		if err != nil {
			b.Fatal(err)
		}
		j := &Journal{}
		cfg := sc.Config
		cfg.Assignment, cfg.Journal = asn, j
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if _, err := Run(cfg, g.Split()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		b.StartTimer()
		events += len(j.Events)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(events), "us/event")
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
}
