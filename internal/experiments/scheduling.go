package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// The failure-aware scheduling experiment: job completion time and
// wasted work for each speculation policy under every Table 2
// interruption group in isolation, at the stock three replicas. Unlike
// the placement sweeps, each cell builds a real dfs NameNode, writes
// the input through it with ADAPT placement, and then replays the
// resulting block placement in the discrete-event simulator under the
// cell's speculation policy.

// SchedulingConfig parameterizes the experiment. Zero fields take
// demo-scale defaults sized so the full grid stays seconds-scale while
// every Table 2 group still shows the policies apart. Every cell runs
// the Table 3 defaults: half the nodes interrupted, 64 MB blocks over
// 8 Mb/s links, γ = 12 s, and 3 replicas.
type SchedulingConfig struct {
	Nodes         int    // default 16
	BlocksPerNode int    // default 5
	Trials        int    // default 5
	Seed          uint64 // default 1
	// RedundancyK is the attempts-per-task of the redundant policy
	// (0 = the simulator default of 2).
	RedundancyK int
	// Groups are the interruption groups to evaluate, one cluster per
	// group (default Table2Groups()).
	Groups []cluster.Group
	// Policies are the scheduling series (default reactive, predictive
	// and redundant).
	Policies []hadoopsim.SpeculationPolicy
	// Workers bounds concurrent cells; 0 or negative means GOMAXPROCS.
	// Results are bit-identical for every worker count.
	Workers int
}

func (c SchedulingConfig) withDefaults() SchedulingConfig {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.BlocksPerNode == 0 {
		c.BlocksPerNode = 5
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Groups) == 0 {
		c.Groups = cluster.Table2Groups()
	}
	if len(c.Policies) == 0 {
		c.Policies = []hadoopsim.SpeculationPolicy{
			hadoopsim.SpeculationReactive,
			hadoopsim.SpeculationPredictive,
			hadoopsim.SpeculationRedundant,
		}
	}
	return c
}

// SchedulingCell is one (group, policy) aggregate.
type SchedulingCell struct {
	Group  string
	Policy hadoopsim.SpeculationPolicy
	// Elapsed is the mean map-phase completion time (s).
	Elapsed float64
	// Wasted is the mean wasted work in node-seconds: rework lost to
	// interruptions plus compute consumed by cancelled duplicate
	// attempts.
	Wasted float64
	// Attempts and Cancelled are mean per-run attempt counts.
	Attempts  float64
	Cancelled float64
	// Locality is the mean data locality.
	Locality float64
}

// SchedulingResult is the full policy × group grid.
type SchedulingResult struct {
	Name     string
	Groups   []string
	Policies []hadoopsim.SpeculationPolicy
	Cells    map[string]map[hadoopsim.SpeculationPolicy]SchedulingCell // group label -> policy -> cell
}

// Cell returns one measured aggregate.
func (r *SchedulingResult) Cell(group string, p hadoopsim.SpeculationPolicy) (SchedulingCell, bool) {
	c, ok := r.Cells[group][p]
	return c, ok
}

// Fingerprint hashes every measured value at full precision, walking
// groups and policies in order; equal fingerprints mean bit-identical
// results (the determinism gate the bench smoke re-verifies).
func (r *SchedulingResult) Fingerprint() string {
	h := sha256.New()
	for _, gl := range r.Groups {
		fmt.Fprintf(h, "[%s]\n", gl)
		for _, p := range r.Policies {
			if c, ok := r.Cell(gl, p); ok {
				fmt.Fprintf(h, "%s|%x|%x|%x|%x|%x\n",
					p, c.Elapsed, c.Wasted, c.Attempts, c.Cancelled, c.Locality)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func groupLabel(g cluster.Group) string {
	return fmt.Sprintf("MTBI=%gs svc=%gs", g.MTBI, g.Service)
}

// schedInput synthesizes a deterministic input payload of exactly
// blocks blocks at the given block size.
func schedInput(blocks int, blockSize int64) []byte {
	data := make([]byte, int64(blocks)*blockSize)
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	return data
}

// schedReplicas is the replication degree of every cell: the stock
// HDFS setting the paper compares against.
const schedReplicas = 3

// runSchedCell executes one (group-cluster, policy, trial) cell: build
// a namespace, write the input, replay its placement under the policy.
func runSchedCell(cfg SchedulingConfig, cl *cluster.Cluster, policy hadoopsim.SpeculationPolicy, seed uint64) (metrics.RunResult, error) {
	g := stats.NewRNG(seed)
	blocks := cfg.Nodes * cfg.BlocksPerNode

	nn, err := dfs.NewNameNode(cl)
	if err != nil {
		return metrics.RunResult{}, err
	}
	client, err := dfs.NewClient(nn, g.Split())
	if err != nil {
		return metrics.RunResult{}, err
	}
	const payload = 64 // bytes per dfs block; sim timing uses 64 MB blocks
	client.BlockSize = payload
	client.Replication = schedReplicas
	fm, _, err := client.CopyFromLocalReportContext(context.Background(), "sched/input", schedInput(blocks, payload), true)
	if err != nil {
		return metrics.RunResult{}, err
	}
	asn := &placement.Assignment{Nodes: cl.Len()}
	asn.Replicas = make([][]cluster.NodeID, len(fm.Blocks))
	for i, bm := range fm.Blocks {
		asn.Replicas[i] = bm.Replicas
	}

	// Block size, γ and bandwidth are the simulator's defaults, the
	// Table 3 values.
	return hadoopsim.Run(hadoopsim.Config{
		Cluster:     cl,
		Assignment:  asn,
		Speculation: policy,
		RedundancyK: cfg.RedundancyK,
	}, g.Split())
}

// SchedulingHeadline runs the full grid: for each Table 2 group a
// dedicated single-group cluster, and on it every policy × trial cell.
// Cells execute across Workers goroutines with coordinate-derived
// seeds and index-order reduction, so the grid is bit-identical at any
// worker count.
func SchedulingHeadline(cfg SchedulingConfig) (*SchedulingResult, error) {
	cfg = cfg.withDefaults()
	res := &SchedulingResult{
		Name:     "Failure-aware scheduling: policy under Table 2 groups",
		Policies: cfg.Policies,
		Cells:    make(map[string]map[hadoopsim.SpeculationPolicy]SchedulingCell),
	}

	g := grid{
		name:    "scheduling",
		trials:  cfg.Trials,
		workers: cfg.Workers,
	}
	for p, gr := range cfg.Groups {
		res.Groups = append(res.Groups, groupLabel(gr))
		res.Cells[groupLabel(gr)] = make(map[hadoopsim.SpeculationPolicy]SchedulingCell, len(cfg.Policies))
		g.seeds = append(g.seeds, stats.DeriveSeed(cfg.Seed, uint64(p)+1))
	}
	g.xLabels = res.Groups
	for _, p := range cfg.Policies {
		// Seeds hash the label these cells always had, so their results do not move.
		g.series = append(g.series, p.String()+"/static-rf")
	}
	// Each interruption group gets a dedicated single-group cluster.
	env := func(p, _ int) (*cluster.Cluster, error) {
		return cluster.NewEmulation(cluster.EmulationConfig{
			Nodes:            cfg.Nodes,
			InterruptedRatio: 0.5,
			Groups:           []cluster.Group{cfg.Groups[p]},
			Shuffle:          true,
		}, stats.NewRNG(stats.DeriveSeed(cfg.Seed, envStream, uint64(p))))
	}
	cell := func(cl *cluster.Cluster, _, s int, seed uint64) (metrics.RunResult, error) {
		return runSchedCell(cfg, cl, cfg.Policies[s], seed)
	}
	reduce := func(p, s int, trials []metrics.RunResult) {
		var elapsed, wasted, attempts, cancelled, locality stats.Summary
		for _, r := range trials {
			elapsed.Add(r.Elapsed)
			wasted.Add(r.Breakdown.Rework + r.WastedSeconds)
			attempts.Add(float64(r.AttemptsLaunched))
			cancelled.Add(float64(r.AttemptsCancelled))
			locality.Add(r.Locality())
		}
		res.Cells[res.Groups[p]][cfg.Policies[s]] = SchedulingCell{
			Group:     res.Groups[p],
			Policy:    cfg.Policies[s],
			Elapsed:   elapsed.Mean(),
			Wasted:    wasted.Mean(),
			Attempts:  attempts.Mean(),
			Cancelled: cancelled.Mean(),
			Locality:  locality.Mean(),
		}
	}
	if err := runGrid(g, env, cell, reduce); err != nil {
		return nil, err
	}
	return res, nil
}

// SchedulingTable renders the grid: one row per (group, policy) with
// JCT, wasted work and attempt accounting.
func SchedulingTable(r *SchedulingResult) *Table {
	t := &Table{
		Title:  r.Name,
		Note:   "JCT = map-phase completion; wasted = rework + cancelled-duplicate compute (node-s)",
		Header: []string{"group", "policy", "JCT (s)", "wasted (node-s)", "attempts", "cancelled", "locality"},
	}
	for _, gl := range r.Groups {
		for _, p := range r.Policies {
			c, ok := r.Cell(gl, p)
			if !ok {
				continue
			}
			t.AddRow(gl, p.String(),
				fmtSeconds(c.Elapsed), fmtSeconds(c.Wasted),
				fmt.Sprintf("%.1f", c.Attempts), fmt.Sprintf("%.1f", c.Cancelled),
				fmtPercent(c.Locality))
		}
	}
	return t
}
