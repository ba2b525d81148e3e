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
// wasted work for each speculation policy crossed with static vs
// dynamic replication, under every Table 2 interruption group in
// isolation. Unlike the placement sweeps, each cell builds a real dfs
// NameNode, writes the input through it, ages the namespace with
// read+maintenance rounds (which is where the dynamic controller earns
// or sheds replicas), and then replays the resulting block placement in
// the discrete-event simulator under the cell's scheduling policy — so
// the comparison exercises the controller's actual repair path, not a
// synthetic replica count.

// SchedMode is one scheduling series: a speculation policy with either
// the static replication baseline or the dynamic controller.
type SchedMode struct {
	Policy    hadoopsim.SpeculationPolicy
	DynamicRF bool
}

// Label renders the series name used in tables and seed derivation.
func (m SchedMode) Label() string {
	rf := "static-rf"
	if m.DynamicRF {
		rf = "dynamic-rf"
	}
	return m.Policy.String() + "/" + rf
}

// SchedulingModes returns the default six series: the three speculation
// policies crossed with static and dynamic replication.
func SchedulingModes() []SchedMode {
	out := make([]SchedMode, 0, 6)
	for _, p := range []hadoopsim.SpeculationPolicy{
		hadoopsim.SpeculationReactive,
		hadoopsim.SpeculationPredictive,
		hadoopsim.SpeculationRedundant,
	} {
		out = append(out, SchedMode{Policy: p, DynamicRF: false})
		out = append(out, SchedMode{Policy: p, DynamicRF: true})
	}
	return out
}

// SchedulingConfig parameterizes the experiment. Zero fields take
// demo-scale defaults sized so the full grid stays seconds-scale while
// every Table 2 group still shows the policies apart. Every cell runs
// the Table 3 defaults: half the nodes interrupted, 64 MB blocks over
// 8 Mb/s links, γ = 12 s, and the static arm at 3 replicas.
type SchedulingConfig struct {
	Nodes         int    // default 16
	BlocksPerNode int    // default 5
	Trials        int    // default 5
	Seed          uint64 // default 1
	// RedundancyK is the attempts-per-task of the redundant policy
	// (0 = the simulator default of 2).
	RedundancyK int
	// AgingRounds is the number of read+maintenance rounds each cell
	// runs before the simulated job; the dynamic controller needs
	// Hysteresis-many agreeing passes per replication step (default 8).
	AgingRounds int
	// Groups are the interruption groups to evaluate, one cluster per
	// group (default Table2Groups()).
	Groups []cluster.Group
	// Modes are the scheduling series (default SchedulingModes()).
	Modes []SchedMode
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
	if c.AgingRounds == 0 {
		c.AgingRounds = 8
	}
	if len(c.Groups) == 0 {
		c.Groups = cluster.Table2Groups()
	}
	if len(c.Modes) == 0 {
		c.Modes = SchedulingModes()
	}
	return c
}

// SchedulingCell is one (group, mode) aggregate.
type SchedulingCell struct {
	Group string
	Mode  SchedMode
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
	// TargetRF is the replication degree the cell's namespace ended
	// at (the static baseline, or where the controller converged).
	TargetRF float64
}

// SchedulingResult is the full policy × replication × group grid.
type SchedulingResult struct {
	Name   string
	Groups []string
	Modes  []SchedMode
	Cells  map[string]map[string]SchedulingCell // group label -> mode label -> cell
}

// Cell returns one measured aggregate.
func (r *SchedulingResult) Cell(group string, m SchedMode) (SchedulingCell, bool) {
	row, ok := r.Cells[group]
	if !ok {
		return SchedulingCell{}, false
	}
	c, ok := row[m.Label()]
	return c, ok
}

// Fingerprint hashes every measured value at full precision, walking
// groups and modes in order; equal fingerprints mean bit-identical
// results (the determinism gate the bench smoke re-verifies).
func (r *SchedulingResult) Fingerprint() string {
	h := sha256.New()
	for _, gl := range r.Groups {
		fmt.Fprintf(h, "[%s]\n", gl)
		for _, m := range r.Modes {
			if c, ok := r.Cell(gl, m); ok {
				fmt.Fprintf(h, "%s|%x|%x|%x|%x|%x|%x\n",
					m.Label(), c.Elapsed, c.Wasted, c.Attempts, c.Cancelled, c.Locality, c.TargetRF)
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

// schedStaticReplicas is the static arm's replication degree: the
// stock HDFS setting the paper compares against.
const schedStaticReplicas = 3

// schedCell is one scheduling cell's outcome: the simulated run and
// the replication degree its namespace ended at.
type schedCell struct {
	run metrics.RunResult
	rf  int
}

// runSchedCell executes one (group-cluster, mode, trial) cell: build a
// namespace, age it, replay its placement under the mode's policy.
func runSchedCell(cfg SchedulingConfig, cl *cluster.Cluster, mode SchedMode, seed uint64) (schedCell, error) {
	g := stats.NewRNG(seed)
	blocks := cfg.Nodes * cfg.BlocksPerNode

	nn, err := dfs.NewNameNode(cl)
	if err != nil {
		return schedCell{}, err
	}
	client, err := dfs.NewClient(nn, g.Split())
	if err != nil {
		return schedCell{}, err
	}
	const payload = 64 // bytes per dfs block; sim timing uses 64 MB blocks
	client.BlockSize = payload
	client.Replication = schedStaticReplicas
	if mode.DynamicRF {
		// The controller starts every file at its floor and earns
		// replicas from heat and volatility.
		if err := nn.EnableDynamicRF(dfs.DynamicRFConfig{}); err != nil {
			return schedCell{}, err
		}
		client.Replication = 2
	}
	const input = "sched/input"
	ctx := context.Background()
	if _, _, err := client.CopyFromLocalReportContext(ctx, input, schedInput(blocks, payload), true); err != nil {
		return schedCell{}, err
	}

	// Age the namespace: every round reads the whole input (feeding the
	// popularity signal) and runs a maintenance pass (where the dynamic
	// target converges through its hysteresis). With the controller off
	// the rounds are no-ops — the file is healthy at its static target —
	// so both arms run the same cell structure.
	for r := 0; r < cfg.AgingRounds; r++ {
		if _, err := client.ReadFileContext(ctx, input); err != nil {
			return schedCell{}, err
		}
		if _, err := client.MaintainReplication(ctx, input, true); err != nil {
			return schedCell{}, err
		}
	}

	fm, err := nn.Stat(input)
	if err != nil {
		return schedCell{}, err
	}
	asn := &placement.Assignment{Nodes: cl.Len()}
	asn.Replicas = make([][]cluster.NodeID, len(fm.Blocks))
	finalRF := 0
	for i, bm := range fm.Blocks {
		asn.Replicas[i] = bm.Replicas
		if len(bm.Replicas) > finalRF {
			finalRF = len(bm.Replicas)
		}
	}

	// Block size, γ and bandwidth are the simulator's defaults, the
	// Table 3 values.
	simCfg := hadoopsim.Config{
		Cluster:     cl,
		Assignment:  asn,
		Speculation: mode.Policy,
		RedundancyK: cfg.RedundancyK,
	}
	res, err := hadoopsim.Run(simCfg, g.Split())
	if err != nil {
		return schedCell{}, err
	}
	return schedCell{run: res, rf: finalRF}, nil
}

// SchedulingHeadline runs the full grid: for each Table 2 group a
// dedicated single-group cluster, and on it every mode × trial cell.
// Cells execute across Workers goroutines with coordinate-derived
// seeds and index-order reduction, so the grid is bit-identical at any
// worker count.
func SchedulingHeadline(cfg SchedulingConfig) (*SchedulingResult, error) {
	cfg = cfg.withDefaults()
	res := &SchedulingResult{
		Name:  "Failure-aware scheduling: policy × replication under Table 2 groups",
		Modes: cfg.Modes,
		Cells: make(map[string]map[string]SchedulingCell),
	}

	g := grid{
		name:    "scheduling",
		trials:  cfg.Trials,
		workers: cfg.Workers,
	}
	for p, gr := range cfg.Groups {
		res.Groups = append(res.Groups, groupLabel(gr))
		res.Cells[groupLabel(gr)] = make(map[string]SchedulingCell, len(cfg.Modes))
		g.seeds = append(g.seeds, stats.DeriveSeed(cfg.Seed, uint64(p)+1))
	}
	g.xLabels = res.Groups
	for _, m := range cfg.Modes {
		g.series = append(g.series, m.Label())
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
	cell := func(cl *cluster.Cluster, _, m int, seed uint64) (schedCell, error) {
		return runSchedCell(cfg, cl, cfg.Modes[m], seed)
	}
	reduce := func(p, m int, trials []schedCell) {
		var elapsed, wasted, attempts, cancelled, locality, rf stats.Summary
		for _, c := range trials {
			elapsed.Add(c.run.Elapsed)
			wasted.Add(c.run.Breakdown.Rework + c.run.WastedSeconds)
			attempts.Add(float64(c.run.AttemptsLaunched))
			cancelled.Add(float64(c.run.AttemptsCancelled))
			locality.Add(c.run.Locality())
			rf.Add(float64(c.rf))
		}
		res.Cells[res.Groups[p]][g.series[m]] = SchedulingCell{
			Group:     res.Groups[p],
			Mode:      cfg.Modes[m],
			Elapsed:   elapsed.Mean(),
			Wasted:    wasted.Mean(),
			Attempts:  attempts.Mean(),
			Cancelled: cancelled.Mean(),
			Locality:  locality.Mean(),
			TargetRF:  rf.Mean(),
		}
	}
	if err := runGrid(g, env, cell, reduce); err != nil {
		return nil, err
	}
	return res, nil
}

// SchedulingTable renders the grid: one row per (group, mode) with JCT,
// wasted work, attempt accounting, and the converged replication.
func SchedulingTable(r *SchedulingResult) *Table {
	t := &Table{
		Title: r.Name,
		Note: "JCT = map-phase completion; wasted = rework + cancelled-duplicate compute (node-s); " +
			"RF = replication the namespace converged to",
		Header: []string{"group", "policy", "replication", "JCT (s)", "wasted (node-s)", "attempts", "cancelled", "locality", "RF"},
	}
	for _, gl := range r.Groups {
		for _, m := range r.Modes {
			c, ok := r.Cell(gl, m)
			if !ok {
				continue
			}
			rfName := "static"
			if m.DynamicRF {
				rfName = "dynamic"
			}
			t.AddRow(gl, m.Policy.String(), rfName,
				fmtSeconds(c.Elapsed), fmtSeconds(c.Wasted),
				fmt.Sprintf("%.1f", c.Attempts), fmt.Sprintf("%.1f", c.Cancelled),
				fmtPercent(c.Locality), fmt.Sprintf("%.1f", c.TargetRF))
		}
	}
	return t
}
