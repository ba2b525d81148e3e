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
// results are bit-identical for every worker count. Timing the engine
// is the repository benchmark's job (benchmark/, workloads sim_scale
// and sim_emulation), not this command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	adapt "github.com/adaptsim/adapt"
	"github.com/adaptsim/adapt/internal/prof"
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

	speculation string
	redundancy  int

	cpuProfile string
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("adapt-bench", flag.ContinueOnError)
	opt := options{}
	fs.StringVar(&opt.exp, "exp", "all", "experiment id (all, defaults, table1, model, headline, sensitivity, ablation, sched, sched-verify, fig3a..fig3c, fig4a..fig4c, fig5a..fig5c)")
	fs.BoolVar(&opt.paper, "paper", false, "run at full paper scale (slow)")
	fs.Float64Var(&opt.scale, "scale", 1, "scale factor in (0,1] applied to cluster sizes and trials")
	fs.IntVar(&opt.trials, "trials", 0, "override trials per scenario (0 = config default)")
	var seed uint64
	fs.Uint64Var(&seed, "seed", 1, "base random seed")
	fs.BoolVar(&opt.markdown, "markdown", false, "emit markdown tables")
	fs.BoolVar(&opt.charts, "charts", false, "also render ASCII charts at the default sweep point")
	fs.IntVar(&opt.workers, "workers", 0, "experiment engine worker count (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&opt.speculation, "speculation", "", "sched mode: restrict to one policy (reactive | predictive | redundant; empty = all)")
	fs.IntVar(&opt.redundancy, "redundancy", 0, "sched mode: attempts per task for the redundant policy (0 = default 2)")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(opt.scale > 0 && opt.scale <= 1) {
		return fmt.Errorf("-scale %g: want a value in (0,1]", opt.scale)
	}
	if opt.trials < 0 {
		return fmt.Errorf("-trials %d: want 0 (the config default) or more", opt.trials)
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

	ids := []string{opt.exp}
	if opt.exp == "all" {
		ids = []string{
			"defaults", "table1", "model", "headline",
			"fig3a", "fig3b", "fig3c", "fig5a", "fig5b", "fig5c",
			"sensitivity", "ablation", "sched",
		}
	}
	for _, id := range ids {
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
	if o.speculation != "" {
		pol, err := adapt.ParseSpeculationPolicy(o.speculation)
		if err != nil {
			return cfg, err
		}
		cfg.Policies = []adapt.SpeculationPolicy{pol}
	}
	return cfg, nil
}

// verifySched re-runs the scheduling grid at two worker counts and
// requires bit-identical fingerprints: the sched determinism gate CI
// runs.
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
	fmt.Printf("sched: ok (fingerprint %s identical at workers=1 and 4)\n", r1.Fingerprint()[:16])
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
	var fig *adapt.ExperimentResult
	var err error
	switch id = strings.ToLower(id); id {
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
		fig, err = adapt.Figure3a(opt.emulation())
	case "fig3b", "fig4b":
		fig, err = adapt.Figure3b(opt.emulation())
	case "fig3c", "fig4c":
		fig, err = adapt.Figure3c(opt.emulation())
	case "fig5a":
		fig, err = adapt.Figure5a(opt.simulation())
	case "fig5b":
		fig, err = adapt.Figure5b(opt.simulation())
	case "fig5c":
		fig, err = adapt.Figure5c(opt.simulation())
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
	if err != nil {
		return nil, err
	}
	return figureTables(fig, id, opt.charts), nil
}

// figureTables renders a figure's sweep: fig3x as elapsed and
// locality tables, fig4x as the locality table alone, fig5x as the
// overhead table. With charts it first prints the matching chart of
// the middle sweep value.
func figureTables(res *adapt.ExperimentResult, id string, charts bool) []*adapt.ResultTable {
	chart := res.OverheadChart
	tables := []*adapt.ResultTable{res.OverheadTable()}
	switch id[:4] {
	case "fig3":
		chart = res.ElapsedChart
		tables = []*adapt.ResultTable{res.ElapsedTable(), res.LocalityTable()}
	case "fig4":
		chart = res.LocalityChart
		tables = []*adapt.ResultTable{res.LocalityTable()}
	}
	if charts && len(res.XVals) > 0 {
		fmt.Println(chart(res.XVals[len(res.XVals)/2]))
	}
	return tables
}
