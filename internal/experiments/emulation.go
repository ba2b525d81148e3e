package experiments

import (
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// EmulationConfig mirrors the paper's emulated environment (§V-A,
// Tables 2 and 3): an n-node cluster with a fixed ratio of
// interrupted nodes split evenly across the Table 2 availability
// groups, 20 blocks per node of Terasort-shaped work, and a throttled
// symmetric network. A task over a 64 MB block takes γ = 12 s
// failure-free (hadoopsim.DefaultGamma), scaled with BlockMB.
type EmulationConfig struct {
	Nodes            int     // default 128 (Table 3)
	BlocksPerNode    int     // default 20 (§V-A)
	InterruptedRatio float64 // default 0.5 (Table 3)
	BandwidthMbps    float64 // default 8 (Table 3)
	BlockMB          float64 // default 64 (Table 3)
	Trials           int     // default 10 runs per scenario (§V-A)
	Seed             uint64
	Series           []Series // default EmulationSeries()
	// Workers bounds how many experiment cells — (point, series,
	// trial) units — run concurrently; 0 or negative means
	// GOMAXPROCS. Results are bit-identical for every worker count:
	// each cell's RNG seed is derived from its coordinates via
	// stats.DeriveSeed and results land in pre-indexed slots.
	Workers int
}

// PaperEmulationConfig returns the full-size configuration of
// Tables 2–3.
func PaperEmulationConfig() EmulationConfig {
	return EmulationConfig{
		Nodes:            128,
		BlocksPerNode:    20,
		InterruptedRatio: 0.5,
		BandwidthMbps:    8,
		BlockMB:          64,
		Trials:           10,
		Seed:             1,
	}
}

// Scale shrinks the cluster and trial count by factor f (0 < f <= 1)
// for quick runs; per-node load and all rates stay unchanged so the
// result shapes are preserved.
func (c EmulationConfig) Scale(f float64) EmulationConfig {
	if f <= 0 || f > 1 {
		return c
	}
	out := c
	out.Nodes = maxInt(8, int(float64(c.Nodes)*f))
	out.Trials = maxInt(2, int(float64(c.Trials)*f))
	return out
}

func (c EmulationConfig) withDefaults() EmulationConfig {
	d := PaperEmulationConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.BlocksPerNode == 0 {
		c.BlocksPerNode = d.BlocksPerNode
	}
	if c.InterruptedRatio == 0 {
		c.InterruptedRatio = d.InterruptedRatio
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
		c.Series = EmulationSeries()
	}
	return c
}

func (c EmulationConfig) sweep() sweep {
	return sweep{series: c.Series, trials: c.Trials, workers: c.Workers}
}

func (c EmulationConfig) point(x float64, xLabel string) point {
	return point{
		x:       x,
		xLabel:  xLabel,
		seed:    c.Seed,
		env:     c.env,
		blocks:  c.Nodes * c.BlocksPerNode,
		blockMB: c.BlockMB,
		mbps:    c.BandwidthMbps,
	}
}

// env builds the emulated cluster (Table 2 groups). Deterministic in
// c.Seed alone: it takes no trial, because all trials of a point share
// it, as the paper's fixed testbed does.
func (c EmulationConfig) env(int) (*cluster.Cluster, error) {
	g := stats.NewRNG(stats.DeriveSeed(c.Seed, envStream))
	return cluster.NewEmulation(cluster.EmulationConfig{
		Nodes:            c.Nodes,
		InterruptedRatio: c.InterruptedRatio,
		Shuffle:          true,
	}, g)
}

// Figure3a sweeps the interrupted-node ratio over {1/4, 1/2, 3/4}
// (Figures 3a and 4a share this run).
func Figure3a(cfg EmulationConfig) (*Result, error) {
	return figure(cfg, "Fig 3(a)/4(a): varying interrupted-node ratio", "interrupted ratio",
		[]float64{0.25, 0.5, 0.75}, func(c *EmulationConfig, ratio float64) (float64, string) {
			c.InterruptedRatio = ratio
			c.Seed += uint64(ratio * 1000)
			return ratio, fmt.Sprintf("%.2f", ratio)
		})
}

// Figure3b sweeps the network bandwidth over {4, 8, 16, 32} Mb/s
// (Figures 3b and 4b).
func Figure3b(cfg EmulationConfig) (*Result, error) {
	return figure(cfg, "Fig 3(b)/4(b): varying network bandwidth", "bandwidth (Mb/s)",
		[]float64{4, 8, 16, 32}, func(c *EmulationConfig, mbps float64) (float64, string) {
			c.BandwidthMbps = mbps
			c.Seed += uint64(mbps)
			return mbps, fmt.Sprintf("%g", mbps)
		})
}

// Figure3c sweeps the cluster size over {1/4, 1/2, 1, 2}× the
// configured nodes (the paper's {32, 64, 128, 256} around 128;
// Figures 3c and 4c).
func Figure3c(cfg EmulationConfig) (*Result, error) {
	return figure(cfg, "Fig 3(c)/4(c): varying number of nodes", "nodes",
		[]float64{0.25, 0.5, 1, 2}, func(c *EmulationConfig, factor float64) (float64, string) {
			c.Nodes = maxInt(8, int(float64(c.Nodes)*factor))
			c.Seed += uint64(c.Nodes)
			return float64(c.Nodes), fmt.Sprintf("%d", c.Nodes)
		})
}

// HeadlineCell is the §V-B default-point comparison.
type HeadlineCell struct {
	Series   Series
	Elapsed  float64
	Locality float64
	// ImprovementVsRandom1 = 1 - elapsed/elapsed(random,1rep).
	ImprovementVsRandom1 float64
}

// Headline runs the default emulation point (Table 3) and reports the
// improvement of each series over stock 1-replica Hadoop, the paper's
// headline being ADAPT/1rep ≈ 40% better.
func Headline(cfg EmulationConfig) ([]HeadlineCell, error) {
	if len(cfg.Series) == 0 {
		cfg.Series = HeadlineSeries()
	}
	cfg = cfg.withDefaults()
	sw := cfg.sweep()
	res := sw.newResult("headline", "point")
	if err := sw.run(res, []point{cfg.point(0, "default")}); err != nil {
		return nil, err
	}
	base, ok := res.Cell("default", Series{StrategyRandom, 1})
	if !ok {
		return nil, fmt.Errorf("experiments: headline requires the random/1rep series")
	}
	out := make([]HeadlineCell, 0, len(cfg.Series))
	for _, s := range cfg.Series {
		c, ok := res.Cell("default", s)
		if !ok {
			continue
		}
		out = append(out, HeadlineCell{
			Series:               s,
			Elapsed:              c.Elapsed,
			Locality:             c.Locality,
			ImprovementVsRandom1: 1 - c.Elapsed/base.Elapsed,
		})
	}
	return out, nil
}

// HeadlineTable renders the headline comparison.
func HeadlineTable(cells []HeadlineCell) *Table {
	t := &Table{
		Title:  "Headline (§V-B): default emulation point",
		Header: []string{"series", "elapsed (s)", "locality", "improvement vs random/1rep"},
	}
	for _, c := range cells {
		t.AddRow(c.Series.Label(), fmtSeconds(c.Elapsed), fmtPercent(c.Locality),
			fmtPercent(c.ImprovementVsRandom1))
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
