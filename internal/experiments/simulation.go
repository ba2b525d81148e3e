package experiments

import (
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// SimulationConfig mirrors the paper's large-scale trace-driven
// simulation (§V-C, Table 4): a host population replaying SETI@home-
// style failure traces, 100 tasks per node, and the rework/recovery/
// migration/misc overhead breakdown.
//
// Trace substitution: the Failure Trace Archive data is proprietary
// input we replace with the calibrated synthetic generator
// (internal/trace). Replaying 1.5 years of trace against a ~1-hour
// job would surface almost no interruptions, so — like the paper's
// injection of trace-derived failures into job-sized runs — the trace
// time axis is compressed: MeanMTBI sets the pooled mean time between
// interruptions after compression (default 3000 s against ~1300 s
// jobs), with interruption durations scaled by the same factor so
// duty cycles and the Table 1 heterogeneity (CoV) are preserved.
// As in the emulation, a task over a 64 MB block takes γ = 12 s
// failure-free (Table 4), scaled with BlockMB.
type SimulationConfig struct {
	Hosts         int     // default 1024 (paper: 8196; see PaperSimulationConfig)
	TasksPerNode  int     // default 100 (Table 4)
	BandwidthMbps float64 // default 8 (Table 4)
	BlockMB       float64 // default 64 (Table 4)
	Trials        int     // default 3
	Seed          uint64
	Series        []Series // default SimulationSeries()
	// MeanMTBI is the compressed pooled mean time between
	// interruptions (default 3000 s).
	MeanMTBI float64
	// SourcePenalty forwards to the simulator: the cost multiplier
	// for re-ingesting a block from the original data source when no
	// replica holder is up (default 2x a peer transfer). Negative
	// forbids source fetches entirely, so tasks whose every holder is
	// down wait for a recovery — the strict Hadoop semantics, under
	// which sole-replica unavailability is far more punishing.
	SourcePenalty float64
	// Workers bounds how many experiment cells — (point, series,
	// trial) units — run concurrently; 0 or negative means
	// GOMAXPROCS. Results are bit-identical for every worker count:
	// each cell's RNG seed is derived from its coordinates via
	// stats.DeriveSeed and results land in pre-indexed slots.
	Workers int
	// Mode selects how interruptions reach the simulator. The default
	// SimModeParametric estimates each host's (λ, μ) from its trace
	// and regenerates failures from those parameters — the paper's
	// "inject failures based on the data" — keeping the failure
	// process consistent with the model the placement weights assume.
	// SimModeReplay replays the recorded trace events verbatim, which
	// stresses the placement against estimation error (a host judged
	// flaky over the full window may happen not to fail during the
	// job).
	Mode SimMode
}

// SimMode selects trace handling for the simulation experiments.
type SimMode int

// Simulation modes.
const (
	SimModeParametric SimMode = iota + 1
	SimModeReplay
)

func (m SimMode) String() string {
	switch m {
	case SimModeParametric:
		return "parametric"
	case SimModeReplay:
		return "replay"
	default:
		return fmt.Sprintf("SimMode(%d)", int(m))
	}
}

// PaperSimulationConfig returns the full-size Table 4 configuration
// (8196 hosts). Expect minutes of CPU per figure at this size.
func PaperSimulationConfig() SimulationConfig {
	cfg := DefaultSimulationConfig()
	cfg.Hosts = 8196
	return cfg
}

// DefaultSimulationConfig returns a laptop-scale configuration that
// preserves the paper's per-node load and failure dynamics.
func DefaultSimulationConfig() SimulationConfig {
	return SimulationConfig{
		Hosts:         1024,
		TasksPerNode:  100,
		BandwidthMbps: 8,
		BlockMB:       64,
		Trials:        3,
		Seed:          1,
		MeanMTBI:      3000,
	}
}

// Scale shrinks hosts and trials by factor f for quick runs.
func (c SimulationConfig) Scale(f float64) SimulationConfig {
	if f <= 0 || f > 1 {
		return c
	}
	out := c
	out.Hosts = maxInt(32, int(float64(c.Hosts)*f))
	out.Trials = maxInt(1, int(float64(c.Trials)*f))
	return out
}

func (c SimulationConfig) withDefaults() SimulationConfig {
	d := DefaultSimulationConfig()
	if c.Hosts == 0 {
		c.Hosts = d.Hosts
	}
	if c.TasksPerNode == 0 {
		c.TasksPerNode = d.TasksPerNode
	}
	if c.BandwidthMbps == 0 {
		c.BandwidthMbps = d.BandwidthMbps
	}
	if c.BlockMB == 0 {
		c.BlockMB = d.BlockMB
	}
	if c.Trials == 0 {
		c.Trials = d.Trials
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.Series) == 0 {
		c.Series = SimulationSeries()
	}
	if c.MeanMTBI == 0 {
		c.MeanMTBI = d.MeanMTBI
	}
	if c.Mode == 0 {
		c.Mode = SimModeParametric
	}
	return c
}

// traceWindow is the generated trace horizon in compressed seconds:
// comfortably longer than any run.
const traceWindow = 50000

// traceSet generates the compressed SETI-style trace population.
func (c SimulationConfig) traceSet(g *stats.RNG) (*trace.Set, error) {
	gen := trace.DefaultSETIConfig(c.Hosts)
	gen.TimeScale = c.MeanMTBI / trace.SETIMTBIMean
	gen.Horizon = traceWindow / gen.TimeScale
	return trace.Generate(gen, g)
}

func (c SimulationConfig) sweep() sweep {
	return sweep{series: c.Series, trials: c.Trials, workers: c.Workers, envPerTrial: true}
}

func (c SimulationConfig) point(x float64, xLabel string) point {
	return point{
		x:             x,
		xLabel:        xLabel,
		seed:          c.Seed,
		env:           c.env,
		blocks:        c.Hosts * c.TasksPerNode,
		blockMB:       c.BlockMB,
		mbps:          c.BandwidthMbps,
		sourcePenalty: c.SourcePenalty,
	}
}

// env generates the trace population and cluster for one trial.
// Deterministic in (c.Seed, trial) alone.
func (c SimulationConfig) env(trial int) (*cluster.Cluster, error) {
	g := stats.NewRNG(stats.DeriveSeed(c.Seed, envStream, uint64(trial)))
	set, err := c.traceSet(g)
	if err != nil {
		return nil, fmt.Errorf("traces: %w", err)
	}
	cl, err := cluster.NewFromTraces(set)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if c.Mode == SimModeParametric {
		cl = cl.WithoutTraces()
	}
	return cl, nil
}

// Figure5a sweeps the network bandwidth over {4, 8, 16, 32} Mb/s.
func Figure5a(cfg SimulationConfig) (*Result, error) {
	return figure(cfg, "Fig 5(a): overhead vs network bandwidth", "bandwidth (Mb/s)",
		[]float64{4, 8, 16, 32}, func(c *SimulationConfig, mbps float64) (float64, string) {
			c.BandwidthMbps = mbps
			c.Seed += uint64(mbps)
			return mbps, fmt.Sprintf("%g", mbps)
		})
}

// Figure5b sweeps the block size over {32, 64, 128, 256} MB. Task
// length and migration cost scale with the block, and the total data
// volume is held fixed (fewer, bigger blocks), as in the paper.
func Figure5b(cfg SimulationConfig) (*Result, error) {
	return figure(cfg, "Fig 5(b): overhead vs block size", "block size (MB)",
		[]float64{32, 64, 128, 256}, func(c *SimulationConfig, blockMB float64) (float64, string) {
			c.BlockMB = blockMB
			// Hold the data volume constant: tasks per node shrink as
			// blocks grow.
			c.TasksPerNode = maxInt(1, int(float64(c.TasksPerNode)*64/blockMB))
			c.Seed += uint64(blockMB)
			return blockMB, fmt.Sprintf("%g", blockMB)
		})
}

// Figure5c sweeps the host count over {1/4, 1/2, 1, 2}× the
// configured population (the paper's 1024 → 16384 around 8196).
func Figure5c(cfg SimulationConfig) (*Result, error) {
	return figure(cfg, "Fig 5(c): overhead vs number of nodes", "nodes",
		[]float64{0.25, 0.5, 1, 2}, func(c *SimulationConfig, factor float64) (float64, string) {
			c.Hosts = maxInt(32, int(float64(c.Hosts)*factor))
			c.Seed += uint64(c.Hosts)
			return float64(c.Hosts), fmt.Sprintf("%d", c.Hosts)
		})
}
