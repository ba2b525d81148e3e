// Package metrics defines the performance quantities the paper
// reports: map-phase elapsed time, data locality (Figures 3–4), and
// the per-component overhead breakdown of Figure 5 (rework, recovery,
// migration, misc relative to the aggregate failure-free execution
// time), plus multi-run aggregation helpers.
package metrics

import (
	"fmt"
	"math"

	"github.com/adaptsim/adapt/internal/stats"
)

// Breakdown is the overhead accounting of §V-C. All fields are in
// node-seconds except where noted.
type Breakdown struct {
	// Base is the aggregate failure-free execution time of the
	// application: Σ over tasks of γ — the denominator of every
	// overhead ratio.
	Base float64
	// Rework is execution time lost to interrupted attempts.
	Rework float64
	// Recovery is downtime endured while a node still had assigned,
	// incomplete local work.
	Recovery float64
	// Migration is time spent transferring blocks for remote task
	// execution (and re-ingest of unavailable blocks).
	Migration float64
	// Misc is every other overhead: scheduling delay, duplicated
	// straggler execution, and idle tails at the end of the map phase.
	Misc float64
}

// Ratio is an overhead breakdown normalized by Base, the form Figure 5
// plots ("overhead ratio" per component).
type Ratio struct {
	Rework    float64
	Recovery  float64
	Migration float64
	Misc      float64
}

// Ratios normalizes the breakdown. A zero Base yields zeros.
func (b Breakdown) Ratios() Ratio {
	if b.Base <= 0 {
		return Ratio{}
	}
	return Ratio{
		Rework:    b.Rework / b.Base,
		Recovery:  b.Recovery / b.Base,
		Migration: b.Migration / b.Base,
		Misc:      b.Misc / b.Base,
	}
}

// Total returns the summed overhead ratio.
func (r Ratio) Total() float64 {
	return r.Rework + r.Recovery + r.Migration + r.Misc
}

func (r Ratio) String() string {
	return fmt.Sprintf("rework=%.1f%% recovery=%.1f%% migration=%.1f%% misc=%.1f%% total=%.1f%%",
		100*r.Rework, 100*r.Recovery, 100*r.Migration, 100*r.Misc, 100*r.Total())
}

// RunResult is the outcome of a single simulated (or emulated) map
// phase.
type RunResult struct {
	// Elapsed is the map-phase completion time in seconds (Figure 3).
	Elapsed float64
	// LocalTasks and TotalTasks define data locality = Local/Total
	// (Figure 4). Tasks executed on a node holding a replica of their
	// block count as local.
	LocalTasks int
	TotalTasks int
	// Breakdown is the overhead accounting (Figure 5).
	Breakdown Breakdown
	// MigratedBlocks counts blocks transferred between nodes.
	MigratedBlocks int
	// Interruptions counts interruption events that occurred during
	// the run.
	Interruptions int
	// SpeculativeTasks counts duplicate (speculative) executions
	// launched.
	SpeculativeTasks int
	// AttemptsLaunched counts every execution attempt started: first
	// tries, re-executions after interruption aborts, and duplicates.
	AttemptsLaunched int
	// AttemptsCancelled counts losing duplicate attempts cancelled
	// because a sibling attempt finished first.
	AttemptsCancelled int
	// WastedSeconds is the execution time (node-seconds) consumed by
	// those cancelled losing attempts — the price of speculation. It
	// is a refinement of the Misc residual, not an addition to the
	// breakdown.
	WastedSeconds float64
}

// Locality returns the data locality in [0, 1]; NaN with no tasks.
func (r RunResult) Locality() float64 {
	if r.TotalTasks == 0 {
		return math.NaN()
	}
	return float64(r.LocalTasks) / float64(r.TotalTasks)
}

// Aggregate averages RunResults over repeated trials (the paper runs
// each scenario 10 times and reports means).
type Aggregate struct {
	Elapsed   stats.Summary
	Locality  stats.Summary
	Rework    stats.Summary
	Recovery  stats.Summary
	Migration stats.Summary
	Misc      stats.Summary
	Runs      int
}

// Observe folds one run into the aggregate.
func (a *Aggregate) Observe(r RunResult) {
	a.Runs++
	a.Elapsed.Add(r.Elapsed)
	if loc := r.Locality(); !math.IsNaN(loc) {
		a.Locality.Add(loc)
	}
	ratios := r.Breakdown.Ratios()
	a.Rework.Add(ratios.Rework)
	a.Recovery.Add(ratios.Recovery)
	a.Migration.Add(ratios.Migration)
	a.Misc.Add(ratios.Misc)
}

// MeanRatio returns the mean overhead ratios across runs.
func (a *Aggregate) MeanRatio() Ratio {
	if a.Runs == 0 {
		return Ratio{}
	}
	return Ratio{
		Rework:    a.Rework.Mean(),
		Recovery:  a.Recovery.Mean(),
		Migration: a.Migration.Mean(),
		Misc:      a.Misc.Mean(),
	}
}
