// Command adapt-sim runs one parameterized map-phase simulation on a
// non-dedicated cluster and prints its metrics — the single-run
// companion to adapt-bench.
//
// Two cluster modes:
//
//	-mode emulation   Table 2 availability groups (default)
//	-mode trace       synthetic SETI@home-style failure traces
//
// Examples:
//
//	adapt-sim -nodes 128 -blocks-per-node 20 -strategy adapt -replicas 1
//	adapt-sim -mode trace -nodes 1024 -strategy random -replicas 2 -bandwidth 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	adapt "github.com/adaptsim/adapt"
	"github.com/adaptsim/adapt/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adapt-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("adapt-sim", flag.ContinueOnError)
	var (
		mode          = fs.String("mode", "emulation", "cluster mode: emulation | trace")
		nodes         = fs.Int("nodes", 128, "cluster size")
		blocksPerNode = fs.Int("blocks-per-node", 20, "input blocks per node")
		ratio         = fs.Float64("interrupted-ratio", 0.5, "emulation: fraction of interrupted nodes")
		bandwidth     = fs.Float64("bandwidth", 8, "link speed in Mb/s")
		blockMB       = fs.Float64("block-mb", 64, "block size in MB")
		gamma         = fs.Float64("gamma", 12, "failure-free seconds per 64 MB map task")
		strategy      = fs.String("strategy", "adapt", "placement strategy: random | adapt | naive | hashring")
		tenantShard   = fs.Int("tenant-shard", 0, "hashring: confine the workload tenant to a shuffled ring subset of this size (0 = whole ring)")
		replicas      = fs.Int("replicas", 1, "replication degree")
		trials        = fs.Int("trials", 1, "independent runs to average")
		workers       = fs.Int("workers", 0, "concurrent trial runners (0 = GOMAXPROCS); results are identical for any value")
		seed          = fs.Uint64("seed", 1, "random seed")
		meanMTBI      = fs.Float64("trace-mtbi", 3000, "trace mode: compressed pooled mean MTBI (s)")
		speculation   = fs.String("speculation", "", "speculation policy: reactive | none | predictive | redundant (default reactive)")
		redundancy    = fs.Int("redundancy", 0, "redundant policy: attempts per task (default 2)")
		scheduler     = fs.String("scheduler", "locality-first", "scheduler: locality-first | availability-aware")
		timeline      = fs.Bool("timeline", false, "print a bucketed event timeline of the first trial")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		stop, perr := prof.StartCPU(*cpuProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if cerr := stop(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	g := adapt.NewRNG(*seed)
	var c *adapt.Cluster
	switch *mode {
	case "emulation":
		var err error
		c, err = adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
			Nodes:            *nodes,
			InterruptedRatio: *ratio,
			Shuffle:          true,
		}, g.Split())
		if err != nil {
			return err
		}
	case "trace":
		cfg := adapt.DefaultSETITraceConfig(*nodes)
		cfg.TimeScale = *meanMTBI / 160290.0
		cfg.Horizon = 50000 / cfg.TimeScale
		set, err := adapt.GenerateTraces(cfg, g.Split())
		if err != nil {
			return err
		}
		c, err = adapt.ClusterFromTraces(set)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	taskGamma := *gamma * *blockMB / 64
	var policy adapt.PlacementPolicy
	switch *strategy {
	case "random":
		policy = adapt.NewRandomPolicy(c)
	case "adapt":
		p, err := adapt.NewAdaptPolicy(c, taskGamma)
		if err != nil {
			return err
		}
		policy = p
	case "naive":
		p, err := adapt.NewNaivePolicy(c)
		if err != nil {
			return err
		}
		policy = p
	case "hashring":
		p, err := adapt.NewHashringPolicy(c, taskGamma, "/input", "", *tenantShard)
		if err != nil {
			return err
		}
		policy = p
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	if *trials < 1 {
		return errors.New("trials must be >= 1")
	}
	var sched adapt.SchedulerPolicy
	switch *scheduler {
	case "locality-first":
		sched = adapt.SchedulerLocalityFirst
	case "availability-aware":
		sched = adapt.SchedulerAvailabilityAware
	default:
		return fmt.Errorf("unknown scheduler %q", *scheduler)
	}
	var specPolicy adapt.SpeculationPolicy
	if *speculation != "" {
		p, err := adapt.ParseSpeculationPolicy(*speculation)
		if err != nil {
			return err
		}
		specPolicy = p
	}
	sc := adapt.Scenario{
		Config: adapt.SimConfig{
			Cluster:     c,
			BlockBytes:  *blockMB * 1024 * 1024,
			Gamma:       *gamma,
			Network:     adapt.NetworkFromMegabits(*bandwidth),
			Speculation: specPolicy,
			RedundancyK: *redundancy,
			Scheduler:   sched,
		},
		Policy:   policy,
		Blocks:   *nodes * *blocksPerNode,
		Replicas: *replicas,
	}
	var journal *adapt.SimJournal
	if *timeline {
		journal = &adapt.SimJournal{}
		sc.Config.Journal = journal
	}
	// Trials derive per-trial seeds from the CLI seed, so the output is
	// bit-identical for every -workers value. The timeline journal
	// serializes event appends, so it pins the run to one worker.
	if journal != nil {
		*workers = 1
	}
	agg, err := adapt.RunTrialsSeeded(sc, *trials, *workers,
		adapt.DeriveSeed(*seed, adapt.HashLabel("adapt-sim/trials")))
	if err != nil {
		return err
	}

	fmt.Printf("cluster:        %d nodes (%s mode), %d interrupted\n",
		c.Len(), *mode, c.InterruptedCount())
	fmt.Printf("workload:       %d blocks x %g MB, gamma %.1fs, %d replica(s), %s placement\n",
		sc.Blocks, *blockMB, taskGamma, *replicas, *strategy)
	fmt.Printf("network:        %g Mb/s\n", *bandwidth)
	fmt.Printf("trials:         %d\n", agg.Runs)
	fmt.Printf("map elapsed:    %.1f s (stderr %.1f)\n", agg.Elapsed.Mean(), agg.Elapsed.StdErr())
	fmt.Printf("data locality:  %.1f%%\n", 100*agg.Locality.Mean())
	ratios := agg.MeanRatio()
	fmt.Printf("overhead:       rework %.1f%%  recovery %.1f%%  migration %.1f%%  misc %.1f%%  (total %.1f%%)\n",
		100*ratios.Rework, 100*ratios.Recovery, 100*ratios.Migration, 100*ratios.Misc, 100*ratios.Total())
	if journal != nil {
		lats := journal.TaskLatencies(nil)
		p50, p95, p99 := adapt.LatencyPercentiles(lats)
		fmt.Printf("task latency:   p50 %.1fs  p95 %.1fs  p99 %.1fs (across trials)\n", p50, p95, p99)
		fmt.Println()
		fmt.Print(journal.Timeline(10))
	}
	return nil
}
