// Command benchmark is the repo's one benchmark: five named workloads
// over the DFS, metadata and simulator paths. One invocation runs one
// workload from one seed, checks its outputs, prints every metric by
// name with its unit, and ends with one JSON line for the driver.
//
//	go run ./benchmark -workload bulk_io -seed 1            end-to-end metrics
//	go run ./benchmark -workload bulk_io -seed 1 -trace 1   per-layer metrics, spans.json
//	go run ./benchmark -all -repeat 2                       agreement report over two sets
//
// BENCHMARK.json at the repo root declares the workloads and metrics;
// README.md in this directory is the glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloadNames is the fixed order of the five workloads.
var workloadNames = []string{"bulk_io", "small_files", "mixed_rw", "sim_scale", "sim_emulation"}

// outcome is what one run of one workload produced.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error // the first failed operation, for the log
	notes     []string
	probed    map[string]bool // per-layer metrics that came from a reference probe
}

// options are one run's inputs.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool   // smoke-test scale
	buildDir  string // scratch space inside the checkout
	spansFile string // where a traced run writes its spans; "" keeps them unwritten
}

func main() {
	var (
		o      options
		trace  int
		all    bool
		repeat int
		runs   int
	)
	flag.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "the only source of variation: payloads, names, read order, simulation seeds")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, per-layer metrics and spans.json; 0: end-to-end metrics")
	flag.BoolVar(&all, "all", false, "run every workload")
	flag.IntVar(&repeat, "repeat", 0, "with -all: run this many sets and report how far their medians disagree")
	flag.IntVar(&runs, "runs", 3, "with -repeat: runs per workload in each set, on consecutive seeds")
	flag.StringVar(&o.buildDir, "dir", ".bench_build", "directory for WAL files and spans.json")
	flag.Parse()
	o.trace = trace != 0
	o.spansFile = filepath.Join(o.buildDir, "spans.json")

	fmt.Println(envLine())
	var err error
	switch {
	case all && repeat > 1:
		err = runRepeat(o, repeat, runs)
	case all:
		for _, name := range workloadNames {
			o.workload = name
			if err = runAndPrint(o); err != nil {
				break
			}
		}
	default:
		err = runAndPrint(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// envLine names the machine and build a run's numbers belong to.
func envLine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, kernel)
}

// referenceProbes are the workloads whose smoke-test-sized traced runs
// stand in for the layers a workload does not reach itself.
var referenceProbes = []string{"small_files", "sim_scale"}

// run executes one workload, traced or not. A traced run ends with the
// reference probes: every layer's cost on this machine is on record in
// every traced run, and a layer the workload does not reach is never
// reported as a time of exactly zero.
func run(o options) (*outcome, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(o.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	ctx := context.Background()

	out, err := runWorkload(ctx, o, workDir)
	if err != nil || !o.trace {
		return out, err
	}
	out.probed = map[string]bool{}
	for _, name := range referenceProbes {
		if name == o.workload {
			continue
		}
		po := o
		po.workload, po.tiny, po.seconds, po.spansFile = name, true, 0.2, ""
		probe, err := runWorkload(ctx, po, workDir)
		if err != nil {
			return nil, fmt.Errorf("reference probe %s: %w", name, err)
		}
		out.attempted += probe.attempted
		out.failed += probe.failed
		if out.firstErr == nil {
			out.firstErr = probe.firstErr
		}
		for _, d := range perLayer {
			if _, have := out.metrics[d.Name]; have {
				continue
			}
			if v, ok := probe.metrics[d.Name]; ok {
				out.metrics[d.Name] = v
				out.probed[d.Name] = true
			}
		}
	}
	return out, nil
}

func runWorkload(ctx context.Context, o options, workDir string) (*outcome, error) {
	if w, ok := dfsWorkloads(o.tiny)[o.workload]; ok {
		if o.trace {
			return traceDFS(ctx, w, o, workDir)
		}
		tally, err := runDFS(ctx, w, o.seed, o.seconds, workDir)
		if err != nil {
			return nil, err
		}
		return &outcome{
			metrics: dfsEndToEnd(tally), attempted: tally.attempted, failed: tally.failed, firstErr: tally.firstErr,
			notes: []string{
				fmt.Sprintf("%d timed rounds, %d timed operations, %d clients on %d NameNode connections",
					len(tally.rounds), tally.totalOps(), dfsClients, dfsClients),
				"ops/s per round:" + fmtValues(tally.roundRates()),
			},
		}, nil
	}
	if w, ok := simWorkloads(o.tiny)[o.workload]; ok {
		if o.trace {
			return traceSim(w, o)
		}
		return runSim(w, o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

// resultLine is the last line of standard output, read by the driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAndPrint runs one workload, prints the metric table and the
// result line, and fails if any output check did.
func runAndPrint(o options) error {
	start := time.Now()
	out, err := run(o)
	if err != nil {
		return err
	}
	defs := endToEnd
	kind := "end-to-end"
	if o.trace {
		defs, kind = perLayer, "per-layer (traced run)"
	}
	fmt.Printf("workload %s seed %d: %s metrics, %.1f s wall\n", o.workload, o.seed, kind, time.Since(start).Seconds())
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	line := resultLine{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	declared := 0
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if ok {
			declared++
		}
		note := ""
		if out.probed[d.Name] {
			note = "; reference probe"
		}
		fmt.Printf("  %-38s %16.6g %-6s (%s is better%s)\n", d.Name, v, d.Unit, d.Better, note)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(out.metrics) > declared {
		return fmt.Errorf("%s produced %d metrics that are not declared %s metrics", o.workload, len(out.metrics)-declared, kind)
	}
	fmt.Printf("  failed %d of %d attempted operations\n", out.failed, out.attempted)
	if out.firstErr != nil {
		fmt.Printf("  first failure: %v\n", out.firstErr)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if out.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed their checks", o.workload, out.failed, out.attempted)
	}
	return nil
}

// fmtValues lists values for a log line.
func fmtValues(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}
