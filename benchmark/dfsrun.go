package main

import (
	"context"
	"fmt"
	"time"

	"github.com/adaptsim/adapt/internal/stats"
)

// epochs is how many times a run sets its workload up. Each epoch is a
// fresh cluster (or simulation environment) followed by its share of
// the timed seconds, so setup_s is a median of several set-ups and the
// timed rounds do not all depend on one placement of one cluster.
const epochs = 3

// dfsWorkloads returns the three DFS workloads. tiny shrinks them to a
// smoke test: same code, a few small files.
func dfsWorkloads(tiny bool) map[string]*dfsWorkload {
	bulk := &dfsWorkload{
		name:      "bulk_io",
		fileBytes: 4 << 20, blockBytes: 1 << 20, payloads: 8, perClient: 6,
		plan: planBulk,
	}
	small := &dfsWorkload{
		name:      "small_files",
		fileBytes: 4 << 10, blockBytes: 64 << 10, payloads: 64, perClient: 300,
		durable: true, plan: planSmall,
	}
	mixed := &dfsWorkload{
		name:      "mixed_rw",
		fileBytes: 1 << 20, blockBytes: 256 << 10, payloads: 16, perClient: 48,
		preload: 32, gates: true, plan: planMixed,
	}
	if tiny {
		bulk.fileBytes, bulk.blockBytes, bulk.perClient = 64<<10, 16<<10, 2
		small.perClient = 5
		mixed.fileBytes, mixed.blockBytes, mixed.perClient, mixed.preload = 32<<10, 8<<10, 4, 4
	}
	return map[string]*dfsWorkload{bulk.name: bulk, small.name: small, mixed.name: mixed}
}

// payloadFor spreads the pool over a round's files so neighbouring
// files never share content.
func payloadFor(e *dfsEnv, round, client, i int) int {
	return ((round+2)*31 + client*e.w.perClient + i) % len(e.payloads)
}

// planBulk: every client puts its files; after a barrier every client
// gets its own files back.
func planBulk(e *dfsEnv, round int) roundPlan {
	puts, gets := make(phase, dfsClients), make(phase, dfsClients)
	for c := 0; c < dfsClients; c++ {
		for i := 0; i < e.w.perClient; i++ {
			name, p := e.fileName(round, c, i), payloadFor(e, round, c, i)
			puts[c].ops = append(puts[c].ops, op{opPut, name, p})
			gets[c].ops = append(gets[c].ops, op{opGet, name, p})
		}
	}
	return roundPlan{puts, gets}
}

// planSmall: every client creates, stats and reads each file of its
// own keyspace in turn.
func planSmall(e *dfsEnv, round int) roundPlan {
	ph := make(phase, dfsClients)
	for c := 0; c < dfsClients; c++ {
		for i := 0; i < e.w.perClient; i++ {
			name, p := e.fileName(round, c, i), payloadFor(e, round, c, i)
			ph[c].ops = append(ph[c].ops, op{opPut, name, p}, op{opStat, name, p}, op{opGet, name, p})
		}
	}
	return roundPlan{ph}
}

// mixedReadSeq is the length of mixed_rw's seeded read order; the
// reading client cycles through it if the writer takes longer.
const mixedReadSeq = 1024

// planMixed: client 0 puts new files while client 1 gets preloaded
// files in a seeded random order until client 0 is done.
func planMixed(e *dfsEnv, round int) roundPlan {
	ph := make(phase, 2)
	for i := 0; i < e.w.perClient; i++ {
		ph[0].ops = append(ph[0].ops, op{opPut, e.fileName(round, 0, i), payloadFor(e, round, 0, i)})
	}
	g := stats.NewRNG(stats.DeriveSeed(e.seed, stats.HashLabel("mixed/reads"), uint64(e.epoch), uint64(round+2)))
	ph[1].loop = true
	for i := 0; i < mixedReadSeq; i++ {
		f := g.IntN(len(e.preNames))
		ph[1].ops = append(ph[1].ops, op{opGet, e.preNames[f], f % len(e.payloads)})
	}
	return roundPlan{ph}
}

// runDFS is the untraced run of a DFS workload: epochs set-ups, each
// followed by its share of the timed seconds on the full stack.
func runDFS(ctx context.Context, w *dfsWorkload, seed uint64, seconds float64, workDir string) (*loadStats, error) {
	tally := &loadStats{}
	budget := time.Duration(seconds / epochs * float64(time.Second))
	for epoch := 0; epoch < epochs; epoch++ {
		t0 := time.Now()
		e, err := newDFSEnv(w, seed, epoch, workDir, false)
		if err != nil {
			return nil, err
		}
		err = func() error {
			if err := e.preloadFiles(ctx, e.full, tally); err != nil {
				return err
			}
			tg := target{st: e.full, nn: e.lc.Engine(), layer: "svc.client"}
			warm, lastRound, err := runEpochRounds(ctx, e, tg, budget, nil, nil, tally)
			if err != nil {
				return err
			}
			tally.setups = append(tally.setups, warm.Sub(t0).Seconds())
			if w.durable && epoch == epochs-1 {
				_, err = e.crashCheck(ctx, lastRound, tally)
			}
			return err
		}()
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", w.name, epoch, err)
		}
	}
	return tally, nil
}

// crashCheck is the durability check: kill the NameNode without
// drain, restart it from the WAL, and read back every file the given
// round was acknowledged for. It returns how long the restart took.
func (e *dfsEnv) crashCheck(ctx context.Context, round int, tally *loadStats) (recoverMS float64, err error) {
	for _, cl := range e.full.clients {
		cl.Close()
	}
	e.lc.CrashNameNode()
	t0 := time.Now()
	g := stats.NewRNG(stats.DeriveSeed(e.seed, stats.HashLabel("dfs/restart"), uint64(e.epoch)))
	if err := e.lc.RestartNameNode(e.c, g, e.nnCfg); err != nil {
		return 0, fmt.Errorf("restart namenode: %w", err)
	}
	recoverMS = float64(time.Since(t0)) / 1e6
	e.full = e.dialClients()
	e.w.plan(e, round).eachPut(func(c int, o op) {
		o.kind = opGet
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		err := e.doOp(opCtx, e.full, c, o)
		cancel()
		if err != nil {
			tally.fail(fmt.Errorf("after crash: get %s: %w", o.name, err))
		} else {
			tally.attempted++
		}
	})
	return recoverMS, nil
}

// dfsEndToEnd turns a run's tally into the end-to-end metrics.
func dfsEndToEnd(t *loadStats) map[string]float64 {
	return map[string]float64{
		"ops_s":        t.opsPerSec(),
		"cycle_p50_ms": t.cycleP50(),
		"setup_s":      median(t.setups),
	}
}
