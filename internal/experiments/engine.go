package experiments

// The parallel experiment engine. Every sweep — the simulation and
// emulation figures, the headline, the sensitivity knobs and the
// scheduling grid — is one grid of independent (point, series, trial)
// cells run by runGrid. Each cell derives its RNG seed from its
// coordinates alone via stats.DeriveSeed and writes its result into a
// pre-indexed slot, so a sweep's output is bit-identical to the
// sequential runner no matter how many workers execute it or in what
// order cells complete.
//
// Environments (trace populations and clusters) are built before any
// cell runs and shared read-only by every series of their point (and
// trial, where each trial has its own): all strategies face the same
// failure sample, the paper's paired-comparison methodology.
// Reduction walks points, series, and trials in index order, so
// floating-point accumulation order is fixed too.

import (
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/par"
	"github.com/adaptsim/adapt/internal/stats"
)

// envStream tags the environment-construction RNG stream so it can
// never collide with a series stream (series hashes are FNV-1a of
// their labels; the tag is drawn from the same space but no series is
// labelled "env/stream").
var envStream = stats.HashLabel("env/stream")

// grid is the shape of one sweep: points × series × trials.
type grid struct {
	name    string   // names the sweep in errors
	xLabels []string // one per point
	seeds   []uint64 // one per point; its cells derive their seeds from it
	series  []string // series labels
	trials  int
	workers int
	// envPerTrial builds an environment per (point, trial) instead of
	// one per point that all its trials share.
	envPerTrial bool
}

// runGrid runs every cell of g on up to g.workers goroutines. Phase 1
// builds the environments with env(point, trial) — trial is 0 when
// the point's trials share one. Phase 2 runs cell(env, point, series,
// seed) for every (point, series, trial) into slots[point][series]
// [trial], with seed = DeriveSeed(point seed, HashLabel(series label),
// trial). Then reduce sees each (point, series)'s trial results, in
// point and series order.
func runGrid[E, O any](g grid,
	env func(point, trial int) (E, error),
	cell func(env E, point, series int, seed uint64) (O, error),
	reduce func(point, series int, trials []O),
) error {
	envTrials := 1
	if g.envPerTrial {
		envTrials = g.trials
	}
	envs := make([][]E, len(g.xLabels))
	for p := range envs {
		envs[p] = make([]E, envTrials)
	}
	if err := par.ForEach(g.workers, len(envs)*envTrials, func(j int) error {
		p, t := j/envTrials, j%envTrials
		e, err := env(p, t)
		if err != nil {
			return fmt.Errorf("experiments: %s %s: %w", g.name, g.xLabels[p], err)
		}
		envs[p][t] = e
		return nil
	}); err != nil {
		return err
	}

	slots := make([][][]O, len(g.xLabels))
	for p := range slots {
		slots[p] = make([][]O, len(g.series))
		for s := range slots[p] {
			slots[p][s] = make([]O, g.trials)
		}
	}
	perPoint := len(g.series) * g.trials
	if err := par.ForEach(g.workers, len(slots)*perPoint, func(j int) error {
		p, s, t := j/perPoint, j%perPoint/g.trials, j%g.trials
		seed := stats.DeriveSeed(g.seeds[p], stats.HashLabel(g.series[s]), uint64(t))
		o, err := cell(envs[p][t%envTrials], p, s, seed)
		if err != nil {
			return fmt.Errorf("experiments: %s %s %s trial %d: %w", g.name, g.xLabels[p], g.series[s], t, err)
		}
		slots[p][s][t] = o
		return nil
	}); err != nil {
		return err
	}

	for p := range slots {
		for s := range slots[p] {
			reduce(p, s, slots[p][s])
		}
	}
	return nil
}

// placementConfig is a SimulationConfig or an EmulationConfig: what a
// placement sweep needs of its configuration.
type placementConfig[C any] interface {
	withDefaults() C
	// sweep is the shape every point of a sweep over this
	// configuration shares.
	sweep() sweep
	// point is this configuration as one value of a sweep.
	point(x float64, xLabel string) point
}

// sweep is the shape of a placement sweep: the series compared at
// every point and the trials each runs.
type sweep struct {
	series      []Series
	trials      int
	workers     int
	envPerTrial bool // simulation: a trace population per trial; emulation: one testbed per point
}

// newResult returns an empty result for a sweep named name.
func (sw sweep) newResult(name, xTitle string) *Result {
	return &Result{
		Name:   name,
		XTitle: xTitle,
		Series: sw.series,
		Cells:  make(map[string]map[string]Cell),
	}
}

// run runs every series of sw at every point of pts through the grid
// and reduces each (point, series) into a Cell of res.
func (sw sweep) run(res *Result, pts []point) error {
	g := grid{
		name:        res.Name,
		trials:      sw.trials,
		workers:     sw.workers,
		envPerTrial: sw.envPerTrial,
	}
	for _, pt := range pts {
		g.xLabels = append(g.xLabels, pt.xLabel)
		g.seeds = append(g.seeds, pt.seed)
		res.XVals = append(res.XVals, pt.xLabel)
		res.Cells[pt.xLabel] = make(map[string]Cell, len(sw.series))
	}
	for _, s := range sw.series {
		g.series = append(g.series, s.Label())
	}
	return runGrid(g,
		func(p, trial int) (*cluster.Cluster, error) { return pts[p].env(trial) },
		func(c *cluster.Cluster, p, s int, seed uint64) (metrics.RunResult, error) {
			return pts[p].run(c, sw.series[s], seed)
		},
		func(p, s int, trials []metrics.RunResult) {
			agg := &metrics.Aggregate{}
			for _, r := range trials {
				agg.Observe(r)
			}
			res.Cells[pts[p].xLabel][g.series[s]] = Cell{
				X:             pts[p].x,
				XLabel:        pts[p].xLabel,
				Series:        sw.series[s],
				Elapsed:       agg.Elapsed.Mean(),
				ElapsedStdErr: agg.Elapsed.StdErr(),
				Locality:      agg.Locality.Mean(),
				Ratios:        agg.MeanRatio(),
			}
		})
}

// point is one value of a placement sweep: where it sits on the x
// axis, the seed its cells derive theirs from, how to build its
// cluster, and the map phase every cell runs on that cluster —
// blocks input blocks of blockMB each, read over an mbps network.
type point struct {
	x             float64
	xLabel        string
	seed          uint64
	env           func(trial int) (*cluster.Cluster, error)
	blocks        int
	blockMB       float64
	mbps          float64
	sourcePenalty float64 // 0 = the simulator default
}

// run places the point's blocks on c with series s's strategy and
// replication, and simulates the map phase under seed.
func (pt point) run(c *cluster.Cluster, s Series, seed uint64) (metrics.RunResult, error) {
	pol, err := policyFor(s.Strategy, c, hadoopsim.DefaultGamma*pt.blockMB/64)
	if err != nil {
		return metrics.RunResult{}, err
	}
	sc := hadoopsim.Scenario{
		Config: hadoopsim.Config{
			Cluster:       c,
			BlockBytes:    pt.blockMB * 1024 * 1024,
			Network:       netsim.FromMegabits(pt.mbps),
			SourcePenalty: pt.sourcePenalty,
		},
		Policy:   pol,
		Blocks:   pt.blocks,
		Replicas: s.Replicas,
	}
	return hadoopsim.RunScenario(sc, stats.NewRNG(seed))
}

// figure runs one sub-figure over the swept values. For each value,
// apply sets it on a copy of the defaulted cfg and returns the point's
// x and label; a value whose label repeats an earlier one — a clamp
// collapsed them — runs once.
func figure[C placementConfig[C]](cfg C, name, xTitle string, values []float64, apply func(c *C, v float64) (float64, string)) (*Result, error) {
	cfg = cfg.withDefaults()
	pts := make([]point, 0, len(values))
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		c := cfg
		x, xLabel := apply(&c, v)
		if seen[xLabel] {
			continue
		}
		seen[xLabel] = true
		pts = append(pts, c.point(x, xLabel))
	}
	sw := cfg.sweep()
	res := sw.newResult(name, xTitle)
	if err := sw.run(res, pts); err != nil {
		return nil, err
	}
	return res, nil
}
