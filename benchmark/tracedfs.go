package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/svc"
)

// The traced run of a DFS workload. It replays the workload's seeded
// rounds on four set-ups and reads each layer's cost off the
// differences:
//
//	plain    full stack, no hooks, no spans   the end-to-end numbers again
//	control  full stack, hooks and spans      self time = control RPC
//	data     engine-direct on the same cluster  self time = block data path (+ WAL)
//	engine   in-memory NameNode, no sockets   namespace + placement + store writes
//
// A span of one stack is made the child of the same operation's span
// on the next-longer stack, so a layer's self time is what the shorter
// stack does not account for.

// Counters read around each timed round of the control pass.
const (
	cShellNN = iota
	cNNDN
	cDNDN
	cDNNN
	cStorePut
	cStoreGet
	cAdmitted
	cQueueWaits
	cShed
	cBrkOpens
	cBrkFastFails
	cReadRetries
	cWriteRetries
	cReadFailovers
	cWriteFailovers
	cDegraded
	cHedged
	cHedgeWins
	nCounts
)

type counts [nCounts]int64

// countMetric names the per-layer metric a counter is reported as
// unchanged; the transport and store counters are reported per
// operation instead.
var countMetric = [nCounts]string{
	cAdmitted:       "svc.admission.admitted",
	cQueueWaits:     "svc.admission.queue_waits",
	cShed:           "svc.admission.shed",
	cBrkOpens:       "svc.breaker.opens",
	cBrkFastFails:   "svc.breaker.fast_fails",
	cReadRetries:    "dfs.retry.read_retries",
	cWriteRetries:   "dfs.retry.write_retries",
	cReadFailovers:  "dfs.retry.read_failovers",
	cWriteFailovers: "dfs.retry.write_failovers",
	cDegraded:       "dfs.retry.degraded_writes",
	cHedged:         "dfs.hedge.hedged_reads",
	cHedgeWins:      "dfs.hedge.wins",
}

func (e *dfsEnv) readCounts() counts {
	var c counts
	tr := e.transport.snapshot()
	c[cShellNN], c[cNNDN], c[cDNDN], c[cDNNN] = tr.shellNN, tr.nnDN, tr.dnDN, tr.dnNN
	c[cStorePut], c[cStoreGet] = e.store.puts.Load(), e.store.gets.Load()
	addAdmission := func(st *svc.AdmissionStats) {
		if st != nil {
			c[cAdmitted] += st.Admitted.Load()
			c[cQueueWaits] += st.QueueWaits.Load()
			c[cShed] += st.Shed()
		}
	}
	addAdmission(e.lc.NN.Admission().Stats())
	for _, dn := range e.lc.DNs {
		addAdmission(dn.Admission().Stats())
	}
	if _, st := e.lc.NN.BreakerStates(); st != nil {
		c[cBrkOpens], c[cBrkFastFails] = st.Opens.Load(), st.FastFails.Load()
	}
	r := e.lc.Engine().Resilience().Snapshot()
	c[cReadRetries], c[cWriteRetries] = r.ReadRetries, r.WriteRetries
	c[cReadFailovers], c[cWriteFailovers] = r.ReadFailovers, r.WriteFailovers
	c[cDegraded], c[cHedged], c[cHedgeWins] = r.DegradedWrites, r.HedgedReads, r.HedgeWins
	return c
}

// memNameNode builds the in-memory counterpart of the env's NameNode:
// same cluster, shards, quotas and hedging, local stores, no WAL.
func (e *dfsEnv) memNameNode() (*dfs.NameNode, error) {
	shards := e.nnCfg.Shards
	if shards == 0 {
		shards = 1
	}
	nn, err := dfs.NewNameNodeSharded(e.c, nil, shards)
	if err != nil {
		return nil, err
	}
	for _, t := range tenants {
		if q, ok := e.nnCfg.TenantQuotas[t]; ok {
			nn.Quotas().Set(t, q)
		}
	}
	if e.nnCfg.HedgeReads {
		if err := nn.SetHedge(e.nnCfg.Hedge); err != nil {
			return nil, err
		}
	}
	return nn, nil
}

// onePass preloads through the target when asked, then runs the
// warm-up and the timed rounds, and returns the pass's own tally.
func onePass(ctx context.Context, e *dfsEnv, tg target, preload bool, budget time.Duration, rec *recorder, hook *roundHook) (*loadStats, int, error) {
	tally := &loadStats{}
	if preload {
		if err := e.preloadFiles(ctx, tg.st, tally); err != nil {
			return tally, 0, err
		}
	}
	_, last, err := runEpochRounds(ctx, e, tg, budget, rec, hook, tally)
	return tally, last, err
}

func traceDFS(ctx context.Context, w *dfsWorkload, o options, workDir string) (*outcome, error) {
	m := map[string]float64{}
	out := &outcome{metrics: m}
	merge := func(t *loadStats) {
		out.attempted += t.attempted
		out.failed += t.failed
		if out.firstErr == nil {
			out.firstErr = t.firstErr
		}
	}
	share := func(f float64) time.Duration { return time.Duration(o.seconds * f * float64(time.Second)) }

	// Plain pass: its own cluster, exactly as the untraced run has it.
	envA, err := newDFSEnv(w, o.seed, 0, workDir, false)
	if err != nil {
		return nil, err
	}
	proc := startProc()
	plain, _, err := onePass(ctx, envA, target{envA.full, envA.lc.Engine(), "plain"}, true, share(0.3), nil, nil)
	merge(plain)
	proc.finish(plain.attempted, m)
	if cerr := envA.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s plain pass: %w", w.name, err)
	}

	// Control and data passes share one cluster with the counting
	// hooks installed.
	rec := newRecorder()
	envB, err := newDFSEnv(w, o.seed, 0, workDir, true)
	if err != nil {
		return nil, err
	}
	var total counts
	var before counts
	var amplification []float64
	hook := &roundHook{
		before: func() { before = envB.readCounts() },
		after: func(r *roundResult) {
			now := envB.readCounts()
			for i := range total {
				total[i] += now[i] - before[i]
			}
			var used int64
			for _, dn := range envB.lc.DNs {
				used += dn.Node().UsedBytes()
			}
			live := float64(len(r.written)+w.preload) * float64(w.fileBytes)
			amplification = append(amplification, fracOf(float64(used), live))
		},
	}
	var control, data *loadStats
	err = func() error {
		var err error
		control, _, err = onePass(ctx, envB, target{envB.full, envB.lc.Engine(), "svc.control"}, true, share(0.3), rec, hook)
		merge(control)
		if err != nil {
			return err
		}
		if err := cleanupLast(ctx, envB, control); err != nil {
			return err
		}
		direct, err := newEngineStack(envB.lc.Engine(), w, stats.NewRNG(stats.DeriveSeed(o.seed, stats.HashLabel("dfs/direct"))))
		if err != nil {
			return err
		}
		var last int
		data, last, err = onePass(ctx, envB, target{direct, envB.lc.Engine(), "svc.data"}, false, share(0.2), rec, nil)
		merge(data)
		if err != nil {
			return err
		}
		if w.durable {
			check := &loadStats{}
			m["wal.recover_ms"], err = envB.crashCheck(ctx, last, check)
			merge(check)
		}
		return err
	}()
	if serr := envB.shutdown(); err == nil {
		err = serr
	}
	if err == nil && w.durable {
		err = walMetrics(envB, workDir, m)
	}
	if rerr := os.RemoveAll(envB.walDir); err == nil && envB.walDir != "" {
		err = rerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced passes: %w", w.name, err)
	}

	// Engine pass: no sockets.
	nn, err := envB.memNameNode()
	if err != nil {
		return nil, err
	}
	mem, err := newEngineStack(nn, w, stats.NewRNG(stats.DeriveSeed(o.seed, stats.HashLabel("dfs/mem"))))
	if err != nil {
		return nil, err
	}
	engine, _, err := onePass(ctx, envB, target{mem, nn, "dfs.engine"}, true, share(0.1), rec, nil)
	merge(engine)
	if err != nil {
		return nil, fmt.Errorf("%s engine pass: %w", w.name, err)
	}

	// Layers from the spans.
	spans := rec.spans
	var selfSum float64
	for _, k := range []opKind{opPut, opGet} {
		kn := kindNames[k]
		nestReplays(spans, "svc.control."+kn, "svc.data."+kn)
		nestReplays(spans, "svc.data."+kn, "dfs.engine."+kn)
	}
	for _, name := range []string{
		"svc.control.put", "svc.data.put", "dfs.engine.put",
		"svc.control.get", "svc.data.get", "dfs.engine.get",
		"svc.control.stat",
	} {
		ms, ok := layerSelfMS(spans, name)
		if !ok {
			continue
		}
		selfSum += ms
		switch {
		case name == "svc.control.stat":
			m["svc.control.stat_ms"] = ms
		case strings.HasPrefix(name, "dfs.engine."):
			m[name+"_ms"] = ms
		default:
			m[name+"_self_ms"] = ms
		}
	}
	m["bench.self_time_cover_frac"] = fracOf(selfSum, plain.cycleP50())
	m["bench.trace_overhead_frac"] = fracOf(plain.opsPerSec()-control.opsPerSec(), plain.opsPerSec())
	if err := writeSpans(o.spansFile, spans); err != nil {
		return nil, err
	}

	// Counts of the control pass.
	ops := float64(control.totalOps())
	puts, gets := float64(len(control.lat(opPut))), float64(len(control.lat(opGet)))
	m["svc.transport.shell_nn_msgs_per_op"] = fracOf(float64(total[cShellNN]), ops)
	m["svc.transport.nn_dn_msgs_per_op"] = fracOf(float64(total[cNNDN]), ops)
	m["svc.transport.dn_dn_msgs_per_op"] = fracOf(float64(total[cDNDN]), ops)
	m["svc.transport.dn_nn_msgs_per_op"] = fracOf(float64(total[cDNNN]), ops)
	m["dfs.store.ops_per_put"] = fracOf(float64(total[cStorePut]), puts)
	m["dfs.store.ops_per_get"] = fracOf(float64(total[cStoreGet]), gets)
	m["dfs.store.bytes_per_user_byte"] = median(amplification)
	for i, name := range countMetric {
		if name != "" {
			m[name] = float64(total[i])
		}
	}
	m["dfs.hedge.useful_frac"] = fracOf(float64(total[cHedgeWins]), float64(total[cHedged]))

	// What the clients saw, from the plain pass.
	putLat, getLat := plain.lat(opPut), plain.lat(opGet)
	n := len(putLat)
	if len(getLat) < n {
		n = len(getLat)
	}
	pct := tailPercent(n)
	m["client.put_mb_s"] = median(plain.roundMBs(opPut))
	m["client.get_mb_s"] = median(plain.roundMBs(opGet))
	m["client.put_p50_ms"] = quantile(putLat, 0.5)
	m["client.get_p50_ms"] = quantile(getLat, 0.5)
	if statLat := plain.lat(opStat); len(statLat) > 0 {
		m["client.stat_p50_ms"] = quantile(statLat, 0.5)
	}
	m["client.put_tail_ms"] = quantile(putLat, pct/100)
	m["client.get_tail_ms"] = quantile(getLat, pct/100)
	m["client.tail_pct"] = pct
	m["client.samples"] = float64(plain.totalOps())
	m["client.put_round_iqr_frac"] = iqrFrac(plain.roundMBs(opPut))
	m["client.get_round_iqr_frac"] = iqrFrac(plain.roundMBs(opGet))

	// Layers alone.
	g := stats.NewRNG(stats.DeriveSeed(o.seed, stats.HashLabel("dfs/alone")))
	block := w.fileBytes
	if int64(block) > w.blockBytes {
		block = int(w.blockBytes)
	}
	if m["dfs.store.put_us"], m["dfs.store.get_us"], err = storeAlone(block, g); err != nil {
		return nil, err
	}
	if w.durable {
		if m["shard.ring.lookup_ns"], m["shard.quota.reserve_ns"], err = shardAlone(envB.c, dfsRF); err != nil {
			return nil, err
		}
	}
	blocksPerFile := (w.fileBytes + int(w.blockBytes) - 1) / int(w.blockBytes)
	if err := placementAlone(envB.c, blocksPerFile, dfsRF, g, m); err != nil {
		return nil, err
	}

	m["bench.failed_ops_frac"] = fracOf(float64(out.failed), float64(out.attempted))
	out.notes = append(out.notes,
		fmt.Sprintf("timed rounds per pass: plain %d, control %d, data %d, engine %d; %d spans in %s",
			len(plain.rounds), len(control.rounds), len(data.rounds), len(engine.rounds), len(spans), o.spansFile),
		fmt.Sprintf("tails are p%g over %d put and %d get samples", pct, len(putLat), len(getLat)))
	return out, nil
}

// cleanupLast deletes the files the last round of a pass left behind,
// so the next pass on the same cluster can store the same names.
func cleanupLast(ctx context.Context, e *dfsEnv, t *loadStats) error {
	var names []string
	e.w.plan(e, len(t.rounds)-1).eachPut(func(_ int, o op) { names = append(names, o.name) })
	return cleanup(ctx, e.lc.Engine(), names, dfsClients)
}

// walMetrics reads the record size out of the logs the stopped
// NameNode left, and times the WAL alone at that size.
func walMetrics(e *dfsEnv, workDir string, m map[string]float64) error {
	recBytes, err := walRecordBytes(e.walDir, e.nnCfg.Shards)
	if err != nil {
		return err
	}
	m["wal.bytes_per_mutation"] = recBytes
	dir, err := os.MkdirTemp(workDir, "walalone-")
	if err != nil {
		return err
	}
	m["wal.append_us"], err = walAlone(dir, int(recBytes))
	return err
}
