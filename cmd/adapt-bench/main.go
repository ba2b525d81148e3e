// Command adapt-bench regenerates the ADAPT paper's evaluation: every
// table and figure of §V plus the §III model validation, printed as
// aligned text tables (or markdown for EXPERIMENTS.md).
//
// Usage:
//
//	adapt-bench -exp all                 # everything, laptop scale
//	adapt-bench -exp fig3a -paper        # one figure at paper scale
//	adapt-bench -exp fig5a -scale 0.25   # quarter-scale quick look
//	adapt-bench -exp table1 -markdown
//
// Experiments: defaults, table1, model, headline, fig3a, fig3b,
// fig3c, fig4a, fig4b, fig4c, fig5a, fig5b, fig5c, all. (Figures 4x
// are the locality views of the fig3x runs.)
//
// The parallel engine is controlled by -workers (0 = GOMAXPROCS);
// results are bit-identical for every worker count. The benchmark
// harness mode records the engine's performance trajectory:
//
//	adapt-bench -exp bench                           # paper-shaped sweep -> BENCH_sim.json
//	adapt-bench -exp bench -bench-hosts 64,128 -bench-workers 1,2
//	adapt-bench -bench-verify BENCH_sim.json         # parse + schema check
//
// The wire benchmark compares the JSON and binary block data paths on
// a loopback cluster:
//
//	adapt-bench -exp svc                             # full sweep -> BENCH_svc.json
//	adapt-bench -exp svc -svc-sizes 65536 -svc-conc 1 -svc-ops 4
//	adapt-bench -svc-verify BENCH_svc.json           # parse + schema + honesty check
//
// The metadata benchmark sweeps the sharded namespace: create/delete
// throughput at several shard counts under churn, each shard count
// ending in a kill -9 plus double replay that proves per-shard
// bit-deterministic recovery with zero acked mutations lost:
//
//	adapt-bench -exp meta                            # shard sweep -> BENCH_meta.json
//	adapt-bench -exp meta -meta-shards 1,4 -meta-ops 400
//	adapt-bench -meta-verify BENCH_meta.json         # honesty + 2x scaling gate
//
// The overload benchmark drives a loopback cluster at a load-factor
// multiple of its baseline offered load with a fraction of the
// DataNodes gray (alive heartbeats, crawling service), and gates on
// the robustness stack holding goodput:
//
//	adapt-bench -exp load                            # baseline + overload -> BENCH_load.json
//	adapt-bench -exp load -load-workers 2 -load-factor 8 -load-duration 1s
//	adapt-bench -load-verify BENCH_load.json         # goodput/durability/fast-shed gates
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	adapt "github.com/adaptsim/adapt"
	"github.com/adaptsim/adapt/internal/prof"
	"github.com/adaptsim/adapt/internal/svc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adapt-bench:", err)
		os.Exit(1)
	}
}

type options struct {
	exp      string
	paper    bool
	scale    float64
	trials   int
	seed     uint64
	markdown bool
	charts   bool
	workers  int

	benchHosts   string
	benchWorkers string
	benchTasks   int
	benchTrials  int
	benchOut     string
	benchVerify  string

	svcSizes  string
	svcConc   string
	svcOps    int
	svcOut    string
	svcVerify string

	metaShards  string
	metaOps     int
	metaWorkers int
	metaOut     string
	metaVerify  string

	loadWorkers  int
	loadFactor   int
	loadGray     float64
	loadDuration time.Duration
	loadOut      string
	loadVerify   string

	speculation string
	redundancy  int
	dynamicRF   string

	cpuProfile string
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("adapt-bench", flag.ContinueOnError)
	opt := options{}
	fs.StringVar(&opt.exp, "exp", "all", "experiment id (all, defaults, table1, model, headline, sensitivity, ablation, bench, sched, sched-verify, fig3a..fig3c, fig4a..fig4c, fig5a..fig5c)")
	fs.BoolVar(&opt.paper, "paper", false, "run at full paper scale (slow)")
	fs.Float64Var(&opt.scale, "scale", 1, "scale factor in (0,1] applied to cluster sizes and trials")
	fs.IntVar(&opt.trials, "trials", 0, "override trials per scenario (0 = config default)")
	var seed uint64
	fs.Uint64Var(&seed, "seed", 1, "base random seed")
	fs.BoolVar(&opt.markdown, "markdown", false, "emit markdown tables")
	fs.BoolVar(&opt.charts, "charts", false, "also render ASCII charts at the default sweep point")
	fs.IntVar(&opt.workers, "workers", 0, "experiment engine worker count (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&opt.benchHosts, "bench-hosts", "", "bench mode: comma-separated host counts (default 1024,4096,8192)")
	fs.StringVar(&opt.benchWorkers, "bench-workers", "", "bench mode: comma-separated worker counts (default 1,2,4,8; first is the baseline)")
	fs.IntVar(&opt.benchTasks, "bench-tasks", 0, "bench mode: tasks per node (default 10)")
	fs.IntVar(&opt.benchTrials, "bench-trials", 0, "bench mode: trials per cell (default 1)")
	fs.StringVar(&opt.benchOut, "bench-out", "BENCH_sim.json", "bench mode: report output path (empty = stdout table only)")
	fs.StringVar(&opt.benchVerify, "bench-verify", "", "verify an existing bench report (parse + schema check) and exit")
	fs.StringVar(&opt.svcSizes, "svc-sizes", "", "svc mode: comma-separated block sizes in bytes (default 65536,1048576,8388608)")
	fs.StringVar(&opt.svcConc, "svc-conc", "", "svc mode: comma-separated client concurrencies (default 1,4)")
	fs.IntVar(&opt.svcOps, "svc-ops", 0, "svc mode: blocks moved per measurement cell (default 8)")
	fs.StringVar(&opt.svcOut, "svc-out", "BENCH_svc.json", "svc mode: report output path (empty = stdout table only)")
	fs.StringVar(&opt.svcVerify, "svc-verify", "", "verify an existing wire bench report (parse + schema + honesty check) and exit")
	fs.StringVar(&opt.metaShards, "meta-shards", "", "meta mode: comma-separated namespace shard counts (default 1,2,4,8; first is the baseline)")
	fs.IntVar(&opt.metaOps, "meta-ops", 0, "meta mode: metadata operations per shard count (default 800)")
	fs.IntVar(&opt.metaWorkers, "meta-workers", 0, "meta mode: concurrent clients (default 8)")
	fs.StringVar(&opt.metaOut, "meta-out", "BENCH_meta.json", "meta mode: report output path (empty = stdout table only)")
	fs.StringVar(&opt.metaVerify, "meta-verify", "", "verify an existing meta bench report (schema + honesty + 2x scaling gate) and exit")
	fs.IntVar(&opt.loadWorkers, "load-workers", 0, "load mode: baseline closed-loop client count (default 4)")
	fs.IntVar(&opt.loadFactor, "load-factor", 0, "load mode: offered-load multiplier for the overload cell (default 10)")
	fs.Float64Var(&opt.loadGray, "load-gray", 0, "load mode: fraction of DataNodes turned gray under overload (default 0.3)")
	fs.DurationVar(&opt.loadDuration, "load-duration", 0, "load mode: measurement window per cell (default 2s)")
	fs.StringVar(&opt.loadOut, "load-out", "BENCH_load.json", "load mode: report output path (empty = stdout table only)")
	fs.StringVar(&opt.loadVerify, "load-verify", "", "verify an existing load report (goodput >= 0.70x, zero lost acked writes, fast sheds) and exit")
	fs.StringVar(&opt.speculation, "speculation", "", "sched mode: restrict to one policy (reactive | predictive | redundant; empty = all)")
	fs.IntVar(&opt.redundancy, "redundancy", 0, "sched mode: attempts per task for the redundant policy (0 = default 2)")
	fs.StringVar(&opt.dynamicRF, "dynamic-rf", "both", "sched mode: replication arms to run (both | on | off)")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt.seed = seed
	if opt.cpuProfile != "" {
		stop, perr := prof.StartCPU(opt.cpuProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if cerr := stop(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	if opt.benchVerify != "" {
		return verifyBench(opt.benchVerify)
	}
	if opt.svcVerify != "" {
		return verifyBenchSvc(opt.svcVerify)
	}
	if opt.metaVerify != "" {
		return verifyBenchMeta(opt.metaVerify)
	}
	if opt.loadVerify != "" {
		return verifyBenchLoad(opt.loadVerify)
	}

	ids := []string{opt.exp}
	if opt.exp == "all" {
		ids = []string{
			"defaults", "table1", "model", "headline",
			"fig3a", "fig3b", "fig3c", "fig5a", "fig5b", "fig5c",
			"sensitivity", "ablation", "sched",
		}
	}
	for _, id := range ids {
		if strings.ToLower(id) == "bench" {
			if err := runBench(opt); err != nil {
				return fmt.Errorf("bench: %w", err)
			}
			continue
		}
		if strings.ToLower(id) == "svc" {
			if err := runBenchSvc(opt); err != nil {
				return fmt.Errorf("svc: %w", err)
			}
			continue
		}
		if strings.ToLower(id) == "meta" {
			if err := runBenchMeta(opt); err != nil {
				return fmt.Errorf("meta: %w", err)
			}
			continue
		}
		if strings.ToLower(id) == "load" {
			if err := runBenchLoad(opt); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			continue
		}
		tables, err := runExperiment(id, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range tables {
			if opt.markdown {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t.String())
			}
		}
	}
	return nil
}

func (o options) emulation() adapt.EmulationConfig {
	cfg := adapt.PaperEmulationConfig()
	if !o.paper {
		cfg = cfg.Scale(0.5) // 64 nodes by default
	}
	cfg = cfg.Scale(o.scale)
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	if o.trials > 0 {
		cfg.Trials = o.trials
	}
	return cfg
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runBench executes the benchmark harness and writes the report.
func runBench(opt options) error {
	hosts, err := parseInts(opt.benchHosts)
	if err != nil {
		return err
	}
	workers, err := parseInts(opt.benchWorkers)
	if err != nil {
		return err
	}
	report, err := adapt.BenchSim(adapt.BenchConfig{
		Hosts:        hosts,
		Workers:      workers,
		TasksPerNode: opt.benchTasks,
		Trials:       opt.benchTrials,
		Seed:         opt.seed,
	})
	if err != nil {
		return err
	}
	tbl := adapt.BenchTable(report)
	if opt.markdown {
		fmt.Println(tbl.Markdown())
	} else {
		fmt.Println(tbl.String())
	}
	if opt.benchOut == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(opt.benchOut, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", opt.benchOut, len(report.Runs))
	return nil
}

// parseInt64s parses a comma-separated list of int64s.
func parseInt64s(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runBenchSvc executes the wire benchmark (JSON vs binary block data
// path on a loopback cluster) and writes BENCH_svc.json.
func runBenchSvc(opt options) error {
	sizes, err := parseInt64s(opt.svcSizes)
	if err != nil {
		return err
	}
	conc, err := parseInts(opt.svcConc)
	if err != nil {
		return err
	}
	report, err := svc.BenchSvc(context.Background(), svc.BenchSvcConfig{
		BlockSizes:  sizes,
		Concurrency: conc,
		Ops:         opt.svcOps,
		Seed:        opt.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(svc.BenchSvcText(report))
	if opt.svcOut == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(opt.svcOut, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", opt.svcOut, len(report.Runs))
	return nil
}

// runBenchMeta executes the sharded-namespace metadata benchmark
// (create/delete throughput vs shard count, with per-shard crash
// recovery proof) and writes BENCH_meta.json.
func runBenchMeta(opt options) error {
	shards, err := parseInts(opt.metaShards)
	if err != nil {
		return err
	}
	report, err := svc.BenchMeta(svc.BenchMetaConfig{
		Shards:  shards,
		Ops:     opt.metaOps,
		Workers: opt.metaWorkers,
		Seed:    opt.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(svc.BenchMetaText(report))
	if err := report.Validate(); err != nil {
		return err
	}
	if opt.metaOut == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(opt.metaOut, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", opt.metaOut, len(report.Runs))
	return nil
}

// runBenchLoad executes the overload benchmark (baseline vs LoadFactor
// x offered load with gray DataNodes) and writes BENCH_load.json. The
// report's own gates run before it is written: a build whose goodput
// collapses, whose sheds crawl, or which loses acknowledged writes
// fails its own benchmark.
func runBenchLoad(opt options) error {
	report, err := svc.BenchLoad(context.Background(), svc.BenchLoadConfig{
		Workers:    opt.loadWorkers,
		LoadFactor: opt.loadFactor,
		GrayFrac:   opt.loadGray,
		Duration:   opt.loadDuration,
		Seed:       opt.seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(svc.BenchLoadText(report))
	if err := report.Validate(); err != nil {
		return err
	}
	if opt.loadOut == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(opt.loadOut, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (goodput ratio %.2fx)\n", opt.loadOut, report.GoodputRatio)
	return nil
}

// verifyBenchLoad parses an existing load report and re-runs its
// robustness gates — the bench-load-smoke CI gate.
func verifyBenchLoad(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var report svc.BenchLoadReport
	if err := json.Unmarshal(buf, &report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := report.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok (schema %s, goodput ratio %.2fx >= 0.70x, %d acked writes, 0 lost)\n",
		path, report.Schema, report.GoodputRatio, report.Overload.AckedWrites)
	return nil
}

// verifyBenchMeta parses an existing meta bench report, runs its
// honesty checks, and enforces the scaling gate (4 shards must reach
// at least 2x the single-shard throughput) — the bench-meta-smoke CI
// gate.
func verifyBenchMeta(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var report svc.BenchMetaReport
	if err := json.Unmarshal(buf, &report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := report.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := report.CheckScaling(4, 2); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok (%d runs, schema %s, 4-shard scaling gate passed)\n", path, len(report.Runs), report.Schema)
	return nil
}

// verifyBenchSvc parses an existing wire bench report and runs its
// honesty checks — the bench-svc-smoke CI gate.
func verifyBenchSvc(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var report svc.BenchSvcReport
	if err := json.Unmarshal(buf, &report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := report.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok (%d runs, schema %s)\n", path, len(report.Runs), report.Schema)
	return nil
}

// verifyBench parses an existing report and checks its schema — the
// bench-smoke CI gate.
func verifyBench(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var report adapt.BenchReport
	if err := json.Unmarshal(buf, &report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := report.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok (%d runs, schema %s)\n", path, len(report.Runs), report.Schema)
	return nil
}

// scheduling builds the sched-grid configuration from the CLI flags.
func (o options) scheduling() (adapt.SchedulingConfig, error) {
	cfg := adapt.SchedulingConfig{
		Seed:        o.seed,
		Workers:     o.workers,
		RedundancyK: o.redundancy,
	}
	if o.paper {
		cfg.Nodes = 32
		cfg.BlocksPerNode = 10
		cfg.Trials = 10
	}
	if o.trials > 0 {
		cfg.Trials = o.trials
	}
	modes := adapt.SchedulingModes()
	if o.speculation != "" {
		pol, err := adapt.ParseSpeculationPolicy(o.speculation)
		if err != nil {
			return cfg, err
		}
		kept := modes[:0]
		for _, m := range modes {
			if m.Policy == pol {
				kept = append(kept, m)
			}
		}
		modes = kept
	}
	switch o.dynamicRF {
	case "", "both":
	case "on", "off":
		want := o.dynamicRF == "on"
		kept := modes[:0]
		for _, m := range modes {
			if m.DynamicRF == want {
				kept = append(kept, m)
			}
		}
		modes = kept
	default:
		return cfg, fmt.Errorf("bad -dynamic-rf %q (both | on | off)", o.dynamicRF)
	}
	if len(modes) == 0 {
		return cfg, fmt.Errorf("flag combination selects no scheduling series")
	}
	cfg.Modes = modes
	return cfg, nil
}

// verifySched re-runs the scheduling grid at two worker counts and
// requires bit-identical fingerprints, then checks the headline claim:
// under the highest-interruption Table 2 group, predictive speculation
// with dynamic replication must beat the static reactive baseline.
// This is the sched determinism gate CI runs.
func verifySched(opt options) error {
	cfg, err := opt.scheduling()
	if err != nil {
		return err
	}
	cfg.Workers = 1
	r1, err := adapt.SchedulingHeadline(cfg)
	if err != nil {
		return err
	}
	cfg.Workers = 4
	r4, err := adapt.SchedulingHeadline(cfg)
	if err != nil {
		return err
	}
	if r1.Fingerprint() != r4.Fingerprint() {
		return fmt.Errorf("sched grid not bit-identical across workers: %s vs %s",
			r1.Fingerprint(), r4.Fingerprint())
	}
	const hot = "MTBI=10s svc=8s"
	base, okBase := r1.Cell(hot, adapt.SchedMode{Policy: adapt.SpeculationReactive})
	pred, okPred := r1.Cell(hot, adapt.SchedMode{Policy: adapt.SpeculationPredictive, DynamicRF: true})
	if okBase && okPred && pred.Elapsed >= base.Elapsed {
		return fmt.Errorf("headline violated: predictive/dynamic JCT %.1fs >= static reactive %.1fs under %s",
			pred.Elapsed, base.Elapsed, hot)
	}
	fmt.Printf("sched: ok (fingerprint %s identical at workers=1 and 4", r1.Fingerprint()[:16])
	if okBase && okPred {
		fmt.Printf("; predictive/dynamic %.1fs < static reactive %.1fs under %s", pred.Elapsed, base.Elapsed, hot)
	}
	fmt.Println(")")
	return nil
}

func (o options) simulation() adapt.SimulationConfig {
	var cfg adapt.SimulationConfig
	if o.paper {
		cfg = adapt.PaperSimulationConfig()
	} else {
		cfg = adapt.DefaultSimulationConfig() // 1024 hosts
		cfg = cfg.Scale(0.25)                 // 256 hosts for interactive runs
	}
	cfg = cfg.Scale(o.scale)
	cfg.Seed = o.seed
	cfg.Workers = o.workers
	if o.trials > 0 {
		cfg.Trials = o.trials
	}
	return cfg
}

func runExperiment(id string, opt options) ([]*adapt.ResultTable, error) {
	switch strings.ToLower(id) {
	case "defaults":
		return []*adapt.ResultTable{adapt.DefaultsTable()}, nil
	case "table1":
		hosts := 4096
		if opt.paper {
			hosts = 16384
		}
		res, err := adapt.Table1(adapt.Table1Config{Hosts: hosts, Seed: opt.seed})
		if err != nil {
			return nil, err
		}
		return []*adapt.ResultTable{res.Table()}, nil
	case "model":
		rows, err := adapt.ModelValidation(adapt.ModelValidationConfig{Seed: opt.seed})
		if err != nil {
			return nil, err
		}
		return []*adapt.ResultTable{adapt.ModelValidationTable(rows)}, nil
	case "headline":
		cells, err := adapt.Headline(opt.emulation())
		if err != nil {
			return nil, err
		}
		return []*adapt.ResultTable{adapt.HeadlineTable(cells)}, nil
	case "ablation":
		rows, err := adapt.Ablation(adapt.AblationConfig{Base: opt.emulation()})
		if err != nil {
			return nil, err
		}
		return []*adapt.ResultTable{adapt.AblationTable(rows)}, nil
	case "sensitivity":
		rows, err := adapt.Sensitivity(adapt.SensitivityConfig{Base: opt.simulation()})
		if err != nil {
			return nil, err
		}
		return []*adapt.ResultTable{adapt.SensitivityTable(rows)}, nil
	case "fig3a", "fig4a":
		return emulationTables(adapt.Figure3a, opt, id)
	case "fig3b", "fig4b":
		return emulationTables(adapt.Figure3b, opt, id)
	case "fig3c", "fig4c":
		return emulationTables(adapt.Figure3c, opt, id)
	case "fig5a":
		return simulationTables(adapt.Figure5a, opt)
	case "fig5b":
		return simulationTables(adapt.Figure5b, opt)
	case "fig5c":
		return simulationTables(adapt.Figure5c, opt)
	case "sched":
		cfg, err := opt.scheduling()
		if err != nil {
			return nil, err
		}
		res, err := adapt.SchedulingHeadline(cfg)
		if err != nil {
			return nil, err
		}
		return []*adapt.ResultTable{adapt.SchedulingTable(res)}, nil
	case "sched-verify":
		return nil, verifySched(opt)
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}

func emulationTables(run func(adapt.EmulationConfig) (*adapt.EmulationResult, error), opt options, id string) ([]*adapt.ResultTable, error) {
	res, err := run(opt.emulation())
	if err != nil {
		return nil, err
	}
	if opt.charts && len(res.XVals) > 0 {
		x := res.XVals[len(res.XVals)/2]
		if strings.HasPrefix(id, "fig4") {
			fmt.Println(res.LocalityChart(x))
		} else {
			fmt.Println(res.ElapsedChart(x))
		}
	}
	if strings.HasPrefix(id, "fig4") {
		return []*adapt.ResultTable{res.LocalityTable()}, nil
	}
	return []*adapt.ResultTable{res.ElapsedTable(), res.LocalityTable()}, nil
}

func simulationTables(run func(adapt.SimulationConfig) (*adapt.SimulationResult, error), opt options) ([]*adapt.ResultTable, error) {
	res, err := run(opt.simulation())
	if err != nil {
		return nil, err
	}
	if opt.charts && len(res.XVals) > 0 {
		fmt.Println(res.OverheadChart(res.XVals[len(res.XVals)/2]))
	}
	return []*adapt.ResultTable{res.OverheadTable()}, nil
}
