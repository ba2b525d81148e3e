package experiments

import (
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// AblationConfig drives the design-choice ablations on the emulation
// cluster: each row toggles exactly one knob of ADAPT or the
// simulator and reports the outcome, quantifying the cost/benefit of
// the paper's choices.
type AblationConfig struct {
	// Base is the emulation configuration (defaults to
	// PaperEmulationConfig scaled by half).
	Base EmulationConfig
}

// AblationRow is one knob setting's outcome.
type AblationRow struct {
	Group    string
	Variant  string
	Elapsed  float64
	Locality float64
}

// Ablation runs the design-choice comparisons:
//
//   - hash-table collision handling: by-rate (paper) vs by-overlap
//   - speculation: on (stock Hadoop) vs off
//   - §IV-C capacity threshold: capped vs uncapped
//   - replica weighting: all-weighted vs uniform secondaries
//   - scheduler: locality-first vs availability-aware (§VII)
func Ablation(cfg AblationConfig) ([]AblationRow, error) {
	base := cfg.Base
	if base.Nodes == 0 {
		base = PaperEmulationConfig().Scale(0.5)
	}
	base = base.withDefaults()

	g := stats.NewRNG(base.Seed)
	emu, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes:            base.Nodes,
		InterruptedRatio: base.InterruptedRatio,
		Shuffle:          true,
	}, g.Split())
	if err != nil {
		return nil, err
	}
	taskGamma := hadoopsim.DefaultGamma * base.BlockMB / 64
	blocks := base.Nodes * base.BlocksPerNode

	var rows []AblationRow
	run := func(group, variant string, pol placement.Policy, mutate func(*hadoopsim.Config), replicas int) error {
		sc := hadoopsim.Scenario{
			Config: hadoopsim.Config{
				Cluster:    emu,
				BlockBytes: base.BlockMB * 1024 * 1024,
				Network:    netsim.FromMegabits(base.BandwidthMbps),
			},
			Policy:   pol,
			Blocks:   blocks,
			Replicas: replicas,
		}
		if mutate != nil {
			mutate(&sc.Config)
		}
		agg, err := hadoopsim.RunTrials(sc, base.Trials, stats.NewRNG(base.Seed+77))
		if err != nil {
			return fmt.Errorf("experiments: ablation %s/%s: %w", group, variant, err)
		}
		rows = append(rows, AblationRow{
			Group:    group,
			Variant:  variant,
			Elapsed:  agg.Elapsed.Mean(),
			Locality: agg.Locality.Mean(),
		})
		return nil
	}

	adaptPol := func(mutate func(*placement.Weighted)) (placement.Policy, error) {
		p, err := placement.NewAdapt(emu, taskGamma)
		if err != nil {
			return nil, err
		}
		if mutate != nil {
			mutate(p)
		}
		return p, nil
	}

	// Collision modes.
	for _, mode := range []placement.CollisionMode{placement.CollisionByRate, placement.CollisionByOverlap} {
		mode := mode
		p, err := adaptPol(func(w *placement.Weighted) { w.Mode = mode })
		if err != nil {
			return nil, err
		}
		if err := run("collision", mode.String(), p, nil, 1); err != nil {
			return nil, err
		}
	}
	// Speculation.
	for _, disable := range []bool{false, true} {
		disable := disable
		p, err := adaptPol(nil)
		if err != nil {
			return nil, err
		}
		variant := "on"
		if disable {
			variant = "off"
		}
		if err := run("speculation", variant, p, func(c *hadoopsim.Config) {
			if disable {
				c.Speculation = hadoopsim.SpeculationNone
			}
		}, 1); err != nil {
			return nil, err
		}
	}
	// Threshold.
	for _, disable := range []bool{false, true} {
		disable := disable
		p, err := adaptPol(func(w *placement.Weighted) { w.DisableThreshold = disable })
		if err != nil {
			return nil, err
		}
		variant := "capped"
		if disable {
			variant = "uncapped"
		}
		if err := run("threshold", variant, p, nil, 1); err != nil {
			return nil, err
		}
	}
	// Replica weighting (2 replicas).
	for _, uniform := range []bool{false, true} {
		uniform := uniform
		p, err := adaptPol(func(w *placement.Weighted) { w.UniformReplicas = uniform })
		if err != nil {
			return nil, err
		}
		variant := "weighted"
		if uniform {
			variant = "uniform-secondaries"
		}
		if err := run("replicas", variant, p, nil, 2); err != nil {
			return nil, err
		}
	}
	// Scheduler (random placement, where scheduling matters most).
	for _, sched := range []hadoopsim.SchedulerPolicy{
		hadoopsim.SchedulerLocalityFirst, hadoopsim.SchedulerAvailabilityAware,
	} {
		sched := sched
		if err := run("scheduler", sched.String(), &placement.Random{Cluster: emu},
			func(c *hadoopsim.Config) { c.Scheduler = sched }, 1); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// AblationTable renders the rows.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:  "Ablations: design-choice cost/benefit on the emulation cluster",
		Header: []string{"knob", "variant", "elapsed (s)", "locality"},
	}
	for _, r := range rows {
		t.AddRow(r.Group, r.Variant, fmtSeconds(r.Elapsed), fmtPercent(r.Locality))
	}
	return t
}
