package main

import (
	"fmt"
	"time"

	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// The traced run of a simulator workload takes one scenario of every
// series apart: where the untraced run calls hadoopsim.RunScenario, it
// calls placement.PlaceAll and hadoopsim.Run itself, in the order
// RunScenario splits its RNG, with a Journal attached, and requires
// the result to fingerprint equal to RunScenario's.

func traceSim(w *simWorkload, o options) (*outcome, error) {
	m := map[string]float64{}
	out := &outcome{metrics: m}
	fail := func(err error) {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	rec := newRecorder()
	proc := startProc()

	t0 := time.Now()
	e, err := newSimEnv(w, o.seed, 0)
	if err != nil {
		return nil, err
	}
	rec.add("sim.env", 0, 0, t0, time.Now())
	m["cluster.build_ms"] = e.buildMS
	if w.traces {
		m["trace.generate_ms"] = e.genMS
	}

	// Warm up as the untraced run does.
	out.attempted++
	if _, err := e.runCell(0, 0); err != nil {
		fail(fmt.Errorf("warm-up: %w", err))
	}

	var plainS, tracedS, runS, events, tasks float64
	var attempts, speculative, migrations, cancelled float64
	byStrategy := map[string][]float64{}
	for si, s := range w.series {
		// A scenario seed: the cell's own for sim_scale, trial 0 of the
		// cell for sim_emulation, which is how RunTrialsSeeded seeds it.
		seed := e.cellSeed(si, 0)
		if !w.traces {
			seed = stats.DeriveSeed(seed, 0)
		}
		sc := e.scenarios[si]
		out.attempted++

		p0 := time.Now()
		want, err := hadoopsim.RunScenario(sc, stats.NewRNG(seed))
		plain := time.Since(p0).Seconds()
		if err != nil {
			fail(fmt.Errorf("%s: %w", s.label(), err))
			continue
		}

		g := stats.NewRNG(seed)
		opID := uint64(si + 1)
		c0 := time.Now()
		asn, err := placement.PlaceAll(sc.Policy, sc.Blocks, sc.Replicas, g.Split())
		c1 := time.Now()
		var got metrics.RunResult
		journal := &hadoopsim.Journal{}
		if err == nil {
			cfg := sc.Config
			cfg.Assignment = asn
			cfg.Journal = journal
			got, err = hadoopsim.Run(cfg, g.Split())
		}
		c2 := time.Now()
		if err != nil {
			fail(fmt.Errorf("%s taken apart: %w", s.label(), err))
			continue
		}
		cell := rec.add("sim.cell", opID, 0, c0, c2)
		rec.add("placement.place_all", opID, cell, c0, c1)
		rec.add("hadoopsim.run", opID, cell, c1, c2)
		if fingerprintRun(got) != fingerprintRun(want) {
			fail(fmt.Errorf("%s: PlaceAll+Run gave %s, RunScenario %s", s.label(), fingerprintRun(got), fingerprintRun(want)))
		}

		plainS += plain
		tracedS += c2.Sub(c0).Seconds()
		run := c2.Sub(c1).Seconds()
		runS += run
		byStrategy[s.strategy] = append(byStrategy[s.strategy], run*1e3)
		events += float64(len(journal.Events))
		tasks += float64(got.TotalTasks)
		attempts += float64(got.AttemptsLaunched)
		speculative += float64(got.SpeculativeTasks)
		migrations += float64(got.MigratedBlocks)
		cancelled += float64(got.AttemptsCancelled)
	}
	for strategy, ms := range byStrategy {
		m["hadoopsim."+strategy+"_run_ms"] = stats.Mean(ms)
	}
	m["hadoopsim.us_per_event"] = fracOf(runS*1e6, events)
	m["hadoopsim.events_per_task"] = fracOf(events, tasks)
	m["hadoopsim.attempts_per_task"] = fracOf(attempts, tasks)
	m["hadoopsim.speculative_per_task"] = fracOf(speculative, tasks)
	m["hadoopsim.migrations_per_task"] = fracOf(migrations, tasks)
	m["hadoopsim.cancelled_per_task"] = fracOf(cancelled, tasks)
	m["hadoopsim.journal_overhead_frac"] = fracOf(tracedS-plainS, plainS)
	m["bench.trace_overhead_frac"] = m["hadoopsim.journal_overhead_frac"]

	spans := rec.spans
	self := selfTimes(spans)
	var cellUS, cellSelfUS float64
	for _, s := range spans {
		if s.Name == "sim.cell" {
			cellUS += s.dur()
			cellSelfUS += self[s.ID]
		}
	}
	m["bench.self_time_cover_frac"] = fracOf(cellUS-cellSelfUS, cellUS)
	if err := writeSpans(o.spansFile, spans); err != nil {
		return nil, err
	}

	// The worker pool: the same trials on one worker and on all.
	if !w.traces {
		out.attempted++
		seed := e.cellSeed(1, 0)
		t1 := time.Now()
		one, err1 := hadoopsim.RunTrialsSeeded(e.scenarios[1], w.trials, 1, seed)
		t2 := time.Now()
		all, err2 := hadoopsim.RunTrialsSeeded(e.scenarios[1], w.trials, w.workers, seed)
		t3 := time.Now()
		switch {
		case err1 != nil:
			fail(err1)
		case err2 != nil:
			fail(err2)
		case fingerprintAggregate(one) != fingerprintAggregate(all):
			fail(fmt.Errorf("aggregate differs between 1 and %d workers", w.workers))
		default:
			m["par.speedup_x"] = fracOf(t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds())
		}
	}

	// Layers alone, at this workload's sizes.
	g := stats.NewRNG(stats.DeriveSeed(o.seed, stats.HashLabel("sim/alone")))
	if m["sim.engine.ns_per_event"], m["sim.engine.cancel_ns"], err = engineAlone(w.hosts, g); err != nil {
		return nil, err
	}
	if m["netsim.transfer_ns"], err = netsimAlone(w.hosts, g); err != nil {
		return nil, err
	}
	if err := placementAlone(e.c, w.blocks(), 1, g, m); err != nil {
		return nil, err
	}

	proc.finish(int(tasks), m)
	m["bench.failed_ops_frac"] = fracOf(float64(out.failed), float64(out.attempted))
	out.notes = append(out.notes, fmt.Sprintf("%d scenarios taken apart, %.0f journal events, %d spans in %s",
		len(w.series), events, len(spans), o.spansFile))
	return out, nil
}
