package experiments

import (
	"fmt"

	"github.com/adaptsim/adapt/internal/metrics"
)

// SensitivityConfig drives the robustness analysis of the
// reproduction's substitution parameters — the knobs the paper fixed
// implicitly (its real testbed/traces) but which we had to choose:
// the trace time compression (MeanMTBI), the cross-host heterogeneity
// share, and the unavailable-block escape (SourcePenalty). For every
// knob value the analysis measures ADAPT/1rep's improvement over
// random/1rep at the default simulation point, showing how stable the
// headline conclusion is under the substitution choices.
type SensitivityConfig struct {
	// Base is the simulation configuration each knob perturbs
	// (defaults to DefaultSimulationConfig scaled to the given
	// Hosts/Trials).
	Base SimulationConfig
}

// SensitivityRow is one knob setting's outcome.
type SensitivityRow struct {
	Knob    string
	Value   string
	Random  metrics.Ratio // random/1rep overhead ratios
	Adapt   metrics.Ratio // adapt/1rep overhead ratios
	Improve float64       // 1 − adaptElapsed/randomElapsed
}

// Sensitivity runs the substitution-parameter sweeps: each knob
// setting is one point of a single sweep.
func Sensitivity(cfg SensitivityConfig) ([]SensitivityRow, error) {
	base := cfg.Base.withDefaults()
	base.Series = []Series{{StrategyRandom, 1}, {StrategyAdapt, 1}}

	var knobs []string
	var pts []point
	add := func(knob, value string, c SimulationConfig) {
		knobs = append(knobs, knob)
		pts = append(pts, c.point(0, value))
	}
	// Knob 1: trace time compression (pooled mean MTBI vs the ~1300 s
	// job).
	for _, mtbi := range []float64{1500, 3000, 6000, 12000} {
		c := base
		c.MeanMTBI = mtbi
		c.Seed = base.Seed + uint64(mtbi)
		add("mean-mtbi", fmt.Sprintf("%gs", mtbi), c)
	}
	// Knob 2: the unavailable-block escape.
	for _, pen := range []float64{1, 2, 4} {
		c := base
		c.SourcePenalty = pen
		c.Seed = base.Seed + 1000 + uint64(pen)
		add("source-penalty", fmt.Sprintf("%gx", pen), c)
	}
	// Knob 3: failure injection mode.
	for _, mode := range []SimMode{SimModeParametric, SimModeReplay} {
		c := base
		c.Mode = mode
		c.Seed = base.Seed + 2000 + uint64(mode)
		add("injection", mode.String(), c)
	}

	sw := base.sweep()
	res := sw.newResult("sensitivity", "knob")
	if err := sw.run(res, pts); err != nil {
		return nil, err
	}
	rows := make([]SensitivityRow, 0, len(pts))
	for i, pt := range pts {
		rnd, _ := res.Cell(pt.xLabel, Series{StrategyRandom, 1})
		adp, _ := res.Cell(pt.xLabel, Series{StrategyAdapt, 1})
		improve := 0.0
		if rnd.Elapsed > 0 {
			improve = 1 - adp.Elapsed/rnd.Elapsed
		}
		rows = append(rows, SensitivityRow{
			Knob: knobs[i], Value: pt.xLabel,
			Random: rnd.Ratios, Adapt: adp.Ratios,
			Improve: improve,
		})
	}
	return rows, nil
}

// SensitivityTable renders the rows.
func SensitivityTable(rows []SensitivityRow) *Table {
	t := &Table{
		Title: "Sensitivity: headline robustness to substitution parameters",
		Note:  "ADAPT/1rep vs random/1rep at the default simulation point",
		Header: []string{
			"knob", "value", "random total", "adapt total", "adapt improvement",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Knob, r.Value,
			fmtPercent(r.Random.Total()), fmtPercent(r.Adapt.Total()),
			fmtPercent(r.Improve))
	}
	return t
}
