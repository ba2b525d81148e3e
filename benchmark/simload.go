package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// The two simulator workloads have no clients. A cell is one call into
// hadoopsim with one seed; a pass is one cell of every series, which
// plays the part a round plays for the DFS workloads.

// Table 4 of the paper: 64 MB blocks, 12 s per block, 8 Mb/s links.
const (
	simBlockBytes = 64 << 20
	simGamma      = 12
	simMbps       = 8
)

type simSeries struct {
	strategy string // random, naive or adapt
	replicas int
}

func (s simSeries) label() string { return fmt.Sprintf("%s/%drep", s.strategy, s.replicas) }

// simWorkload is the shape of one simulator workload.
type simWorkload struct {
	name         string
	hosts        int
	tasksPerNode int
	series       []simSeries
	// traces: the cluster comes from generated SETI@home-style traces,
	// time-scaled as internal/experiments does, and a cell is one
	// RunScenario on one thread. Otherwise the cluster is the Table 2
	// emulation and a cell is trials scenarios on workers threads.
	traces  bool
	trials  int
	workers int
}

func simWorkloads(tiny bool) map[string]*simWorkload {
	scale := &simWorkload{
		name: "sim_scale", hosts: 3072, tasksPerNode: 10, traces: true,
		series: []simSeries{{"random", 1}, {"naive", 1}, {"adapt", 1}},
	}
	emu := &simWorkload{
		name: "sim_emulation", hosts: 256, tasksPerNode: 100, trials: 6, workers: runtime.NumCPU(),
		series: []simSeries{{"random", 3}, {"adapt", 1}, {"adapt", 3}},
	}
	if tiny {
		scale.hosts, scale.tasksPerNode = 64, 4
		emu.hosts, emu.tasksPerNode, emu.trials = 32, 8, 2
	}
	return map[string]*simWorkload{scale.name: scale, emu.name: emu}
}

func (w *simWorkload) blocks() int { return w.hosts * w.tasksPerNode }

// tasksPerCell is how many simulated map tasks one cell completes.
func (w *simWorkload) tasksPerCell() int {
	if w.traces {
		return w.blocks()
	}
	return w.blocks() * w.trials
}

// simEnv is one epoch's set-up: the cluster and one scenario per
// series.
type simEnv struct {
	w         *simWorkload
	seed      uint64
	epoch     int
	c         *cluster.Cluster
	scenarios []hadoopsim.Scenario

	genMS, buildMS float64 // trace generation, cluster construction
}

// Mean time between interruptions and trace window after time
// scaling, as internal/experiments.DefaultSimulationConfig has them.
const (
	simMeanMTBI = 3000.0
	simWindow   = 50000.0
)

func newSimEnv(w *simWorkload, seed uint64, epoch int) (*simEnv, error) {
	e := &simEnv{w: w, seed: seed, epoch: epoch}
	g := stats.NewRNG(stats.DeriveSeed(seed, stats.HashLabel("sim/env"), uint64(epoch)))
	t0 := time.Now()
	if w.traces {
		gen := trace.DefaultSETIConfig(w.hosts)
		gen.TimeScale = simMeanMTBI / trace.SETIMTBIMean
		gen.Horizon = simWindow / gen.TimeScale
		set, err := trace.Generate(gen, g)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		e.genMS = float64(t1.Sub(t0)) / 1e6
		c, err := cluster.NewFromTraces(set)
		if err != nil {
			return nil, err
		}
		e.c = c.WithoutTraces()
		e.buildMS = float64(time.Since(t1)) / 1e6
	} else {
		c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: w.hosts, InterruptedRatio: 0.5, Shuffle: true}, g)
		if err != nil {
			return nil, err
		}
		e.c = c
		e.buildMS = float64(time.Since(t0)) / 1e6
	}
	for _, s := range w.series {
		pol, err := simPolicy(s.strategy, e.c)
		if err != nil {
			return nil, err
		}
		e.scenarios = append(e.scenarios, hadoopsim.Scenario{
			Config: hadoopsim.Config{
				Cluster:    e.c,
				BlockBytes: simBlockBytes,
				Gamma:      simGamma,
				Network:    netsim.FromMegabits(simMbps),
			},
			Policy:   pol,
			Blocks:   w.blocks(),
			Replicas: s.replicas,
		})
	}
	return e, nil
}

func simPolicy(strategy string, c *cluster.Cluster) (placement.Policy, error) {
	switch strategy {
	case "random":
		return &placement.Random{Cluster: c}, nil
	case "naive":
		return placement.NewNaive(c)
	case "adapt":
		return placement.NewAdapt(c, simGamma)
	}
	return nil, fmt.Errorf("unknown strategy %q", strategy)
}

// cellSeed derives a cell's seed from its coordinates alone.
func (e *simEnv) cellSeed(series, index int) uint64 {
	return stats.DeriveSeed(e.seed, stats.HashLabel(e.w.series[series].label()), uint64(e.epoch), uint64(index))
}

// runCell executes one cell and returns its result fingerprint.
func (e *simEnv) runCell(series, index int) (string, error) {
	seed := e.cellSeed(series, index)
	if e.w.traces {
		res, err := hadoopsim.RunScenario(e.scenarios[series], stats.NewRNG(seed))
		if err != nil {
			return "", err
		}
		return fingerprintRun(res), nil
	}
	agg, err := hadoopsim.RunTrialsSeeded(e.scenarios[series], e.w.trials, e.w.workers, seed)
	if err != nil {
		return "", err
	}
	return fingerprintAggregate(agg), nil
}

// fingerprintRun digests every measured value of one simulated map
// phase at full precision: two results fingerprint equal only if they
// are bit-identical.
func fingerprintRun(r metrics.RunResult) string {
	b := r.Breakdown
	s := fmt.Sprintf("%x|%x|%x|%x|%x|%x|%x|%d|%d|%d|%d|%d|%d|%x",
		r.Elapsed, r.Locality(), b.Base, b.Rework, b.Recovery, b.Migration, b.Misc,
		r.MigratedBlocks, r.Interruptions, r.SpeculativeTasks, r.AttemptsLaunched, r.AttemptsCancelled,
		r.TotalTasks, r.WastedSeconds)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func fingerprintAggregate(a metrics.Aggregate) string {
	h := sha256.New()
	for _, s := range []*stats.Summary{&a.Elapsed, &a.Locality, &a.Rework, &a.Recovery, &a.Migration, &a.Misc} {
		fmt.Fprintf(h, "%d|%x|%x|%x|%x\n", s.Count(), s.Sum(), s.Mean(), s.Min(), s.Max())
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed testdata/fingerprints.json
var pinnedJSON []byte

// pinned returns the result fingerprints recorded for seed 1 at full
// scale, keyed "<workload>/<series>/<index>" for epoch 0.
func pinned() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/fingerprints.json: %w", err)
	}
	return m, nil
}

// simStats pools the cells of a run.
type simStats struct {
	rates     []float64   // per pass: simulated map tasks per wall second
	cellMS    [][]float64 // per series: wall ms of each timed cell
	setups    []float64
	attempted int
	failed    int
	firstErr  error
	prints    map[string]string // fingerprints of epoch 0, pass 0
}

func (s *simStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// runSim is the untraced run of a simulator workload.
func runSim(w *simWorkload, o options) (*outcome, error) {
	st := &simStats{cellMS: make([][]float64, len(w.series)), prints: map[string]string{}}
	var want map[string]string
	if o.seed == 1 && !o.tiny {
		var err error
		if want, err = pinned(); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(o.seconds / epochs * float64(time.Second))
	for epoch := 0; epoch < epochs; epoch++ {
		t0 := time.Now()
		e, err := newSimEnv(w, o.seed, epoch)
		if err != nil {
			return nil, err
		}
		// The warm-up cell is cell 0 of the first series; the first
		// timed cell executes it a second time and must agree with it.
		st.attempted++
		warmPrint, err := e.runCell(0, 0)
		if err != nil {
			st.fail(fmt.Errorf("epoch %d warm-up: %w", epoch, err))
		}
		warm := time.Now()
		st.setups = append(st.setups, warm.Sub(t0).Seconds())
		for pass := 0; pass == 0 || time.Since(warm) < budget; pass++ {
			passStart := time.Now()
			for si := range w.series {
				key := fmt.Sprintf("%s/%s/%d", w.name, w.series[si].label(), pass)
				st.attempted++
				c0 := time.Now()
				fp, err := e.runCell(si, pass)
				st.cellMS[si] = append(st.cellMS[si], float64(time.Since(c0))/1e6)
				switch {
				case err != nil:
					st.fail(fmt.Errorf("epoch %d cell %s: %w", epoch, key, err))
				case si == 0 && pass == 0 && fp != warmPrint:
					st.fail(fmt.Errorf("epoch %d cell %s: second execution gave %s, first %s", epoch, key, fp, warmPrint))
				case epoch == 0 && pass == 0 && want != nil && want[key] != fp:
					st.fail(fmt.Errorf("cell %s: fingerprint %s, pinned %q", key, fp, want[key]))
				}
				if epoch == 0 && pass == 0 {
					st.prints[key] = fp
				}
			}
			st.rates = append(st.rates, float64(len(w.series)*w.tasksPerCell())/time.Since(passStart).Seconds())
		}
	}

	var cycle float64
	for _, ms := range st.cellMS {
		cycle += median(ms)
	}
	out := &outcome{
		metrics: map[string]float64{
			"ops_s":        median(st.rates),
			"cycle_p50_ms": cycle,
			"setup_s":      median(st.setups),
		},
		attempted: st.attempted, failed: st.failed, firstErr: st.firstErr,
	}
	out.notes = append(out.notes, fmt.Sprintf("%d timed passes of %d cells; %d simulated map tasks per cell, so cells/s = ops_s / %d",
		len(st.rates), len(w.series), w.tasksPerCell(), w.tasksPerCell()))
	out.notes = append(out.notes, "ops/s per pass:"+fmtValues(st.rates))
	for si := range w.series {
		key := fmt.Sprintf("%s/%s/0", w.name, w.series[si].label())
		out.notes = append(out.notes, fmt.Sprintf("fingerprint %s %s", key, st.prints[key]))
	}
	return out, nil
}
