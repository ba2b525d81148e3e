package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/svc"
)

// The DFS load generator. It is a closed loop: every client sends its
// next request only when the previous one has returned, as adapt-fs
// and MapReduce tasks do. A round is a fixed list of operations made
// from the seed alone, so the same round can be replayed on the full
// stack (svc.Client over loopback TCP), engine-direct (dfs.Client on
// the NameNode's engine, no control RPC) and on an in-memory NameNode
// (no sockets at all).

type opKind int

const (
	opPut opKind = iota
	opGet
	opStat
	nKinds
)

var kindNames = [nKinds]string{"put", "get", "stat"}

// opTimeout is the deadline every operation carries across the wire.
const opTimeout = 30 * time.Second

type op struct {
	kind    opKind
	name    string
	payload int // index into the payload pool
}

// clientPlan is what one client does in a phase. A looping client
// cycles through its operations until every other client of the phase
// has finished.
type clientPlan struct {
	ops  []op
	loop bool
}

// A phase ends when all its clients have finished; a round is its
// phases in order.
type phase []clientPlan
type roundPlan []phase

// The load shape every DFS workload shares: nproc is 2 on the
// reference box, and the generator never uses more client goroutines
// or connections than that.
const (
	dfsNodes   = 6
	dfsRF      = 3
	dfsClients = 2
)

// dfsWorkload is the cluster and round shape of one DFS workload.
type dfsWorkload struct {
	name       string
	fileBytes  int
	blockBytes int64
	payloads   int  // distinct file contents in the pool
	perClient  int  // files each writing client handles per round
	preload    int  // files stored before the first round
	durable    bool // WAL with real fsync, 4 shards, two tenants
	gates      bool // admission control, breakers and hedged reads on
	plan       func(e *dfsEnv, round int) roundPlan
}

// stack is one way of reaching the file system.
type stack interface {
	put(ctx context.Context, client int, name string, data []byte) (dfs.WriteReport, error)
	get(ctx context.Context, client int, name string) ([]byte, error)
	stat(ctx context.Context, client int, name string) (int64, error)
}

// svcStack is the path an adapt-fs user takes: one svc.Client, and so
// one NameNode connection, per client goroutine.
type svcStack struct{ clients []*svc.Client }

func (s *svcStack) put(ctx context.Context, c int, name string, data []byte) (dfs.WriteReport, error) {
	_, rep, err := s.clients[c].CopyFromLocal(ctx, name, data, true)
	return rep, err
}

func (s *svcStack) get(ctx context.Context, c int, name string) ([]byte, error) {
	return s.clients[c].ReadFile(ctx, name)
}

func (s *svcStack) stat(ctx context.Context, c int, name string) (int64, error) {
	fm, err := s.clients[c].Stat(ctx, name)
	if err != nil {
		return 0, err
	}
	return fm.Size, nil
}

// engineStack drives a dfs.NameNode in-process with one dfs.Client per
// client goroutine. Over the loopback cluster's engine it is the full
// stack minus the control RPC; over an in-memory NameNode it is the
// namespace, placement and store writes alone.
type engineStack struct {
	nn      *dfs.NameNode
	clients []*dfs.Client
}

func newEngineStack(nn *dfs.NameNode, w *dfsWorkload, g *stats.RNG) (*engineStack, error) {
	s := &engineStack{nn: nn}
	for i := 0; i < dfsClients; i++ {
		cl, err := dfs.NewClient(nn, g.Split())
		if err != nil {
			return nil, err
		}
		cl.BlockSize = w.blockBytes
		cl.Replication = dfsRF
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (s *engineStack) put(ctx context.Context, c int, name string, data []byte) (dfs.WriteReport, error) {
	_, rep, err := s.clients[c].CopyFromLocalReportContext(ctx, name, data, true)
	return rep, err
}

func (s *engineStack) get(ctx context.Context, c int, name string) ([]byte, error) {
	return s.clients[c].ReadFileContext(ctx, name)
}

func (s *engineStack) stat(ctx context.Context, c int, name string) (int64, error) {
	fm, err := s.nn.Stat(name)
	if err != nil {
		return 0, err
	}
	return fm.Size, nil
}

// dfsEnv is one epoch's set-up: the emulated cluster, its loopback
// services, the payload pool and the client connections.
type dfsEnv struct {
	w     *dfsWorkload
	seed  uint64
	epoch int

	c        *cluster.Cluster
	lc       *svc.LocalCluster
	nnCfg    svc.NameNodeConfig
	walDir   string
	payloads [][]byte
	salt     string
	full     *svcStack
	preNames []string

	// Counting hooks; nil on an untraced env.
	transport *countingTransport
	store     *countingStore
}

// tenants are the two quota-carrying namespaces of the durable
// workload; the quotas are far above anything a run stores.
var tenants = [2]string{"alpha", "beta"}

func (w *dfsWorkload) nameNodeConfig(walDir string) svc.NameNodeConfig {
	cfg := svc.NameNodeConfig{BlockSize: w.blockBytes, Replication: dfsRF}
	if w.durable {
		cfg.WALDir = walDir
		cfg.Shards = 4
		cfg.TenantQuotas = map[string]shard.Quota{}
		for _, t := range tenants {
			cfg.TenantQuotas[t] = shard.Quota{MaxFiles: 1 << 40, MaxBytes: 1 << 50, MaxRF: 8}
		}
	}
	if w.gates {
		cfg.Admission = svc.AdmissionConfig{MaxInflight: 64}
		cfg.Breaker = svc.BreakerConfig{Threshold: 5}
		cfg.HedgeReads = true
	}
	return cfg
}

// newDFSEnv brings one epoch's cluster up. workDir is where a durable
// NameNode keeps its WAL; traced installs the counting hooks.
func newDFSEnv(w *dfsWorkload, seed uint64, epoch int, workDir string, traced bool) (*dfsEnv, error) {
	g := stats.NewRNG(stats.DeriveSeed(seed, stats.HashLabel("dfs/env"), uint64(epoch)))
	e := &dfsEnv{w: w, seed: seed, epoch: epoch}
	e.salt = fmt.Sprintf("%08x", uint32(stats.DeriveSeed(seed, stats.HashLabel("dfs/names"))))

	c, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes: dfsNodes, InterruptedRatio: 0.5, Shuffle: true,
	}, g.Split())
	if err != nil {
		return nil, err
	}
	e.c = c
	if w.durable {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		e.walDir = dir
	}
	e.nnCfg = w.nameNodeConfig(e.walDir)

	var faults svc.TransportFaults
	if traced {
		e.transport = &countingTransport{}
		e.store = &countingStore{}
		faults = e.transport
	}
	lc, err := svc.StartLocalCluster(c, g.Split(), faults, e.nnCfg)
	if err != nil {
		return nil, err
	}
	e.lc = lc
	for _, dn := range lc.DNs {
		if w.gates {
			dn.SetAdmission(e.nnCfg.Admission)
		}
		if traced {
			dn.Node().SetFaults(e.store)
		}
	}

	e.payloads = makePayloads(g.Split(), w.payloads, w.fileBytes)
	e.full = e.dialClients()
	return e, nil
}

// dialClients opens one NameNode connection per client goroutine.
func (e *dfsEnv) dialClients() *svcStack {
	s := &svcStack{}
	for i := 0; i < dfsClients; i++ {
		s.clients = append(s.clients, e.lc.Client(fmt.Sprintf("shell-%d", i)))
	}
	return s
}

// shutdown closes the client connections and stops the services.
func (e *dfsEnv) shutdown() error {
	for _, cl := range e.full.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return e.lc.Close(ctx)
}

// close shuts the services down and removes the WAL directory.
func (e *dfsEnv) close() error {
	err := e.shutdown()
	if e.walDir != "" {
		if rerr := os.RemoveAll(e.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// makePayloads fills n buffers of size bytes from the seeded stream.
func makePayloads(g *stats.RNG, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		buf := make([]byte, size+8)
		for off := 0; off < size; off += 8 {
			binary.LittleEndian.PutUint64(buf[off:], g.Uint64())
		}
		out[i] = buf[:size]
	}
	return out
}

// fileName places a file in the workload's namespace: durable
// workloads split the clients over the two tenants.
func (e *dfsEnv) fileName(round, client, i int) string {
	rel := fmt.Sprintf("%s/e%d/r%d/c%d/f%04d", e.salt, e.epoch, round, client, i)
	if e.w.durable {
		return shard.Prefix(tenants[client%len(tenants)], rel)
	}
	return rel
}

// roundResult is what one executed round measured.
type roundResult struct {
	wall      float64           // seconds, phases summed
	kindWall  [nKinds]float64   // seconds of the phases a kind ran in
	lat       [nKinds][]float64 // ms per operation
	ops       int
	failed    int
	userBytes [nKinds]int64
	written   []string // files the round stored, for cleanup
	firstErr  error
}

func (r *roundResult) opsPerSec() float64 { return float64(r.ops) / r.wall }

func (r *roundResult) mbPerSec(k opKind) float64 {
	if r.kindWall[k] == 0 {
		return 0
	}
	return float64(r.userBytes[k]) / (1 << 20) / r.kindWall[k]
}

// runRound executes a round on a stack. Every operation is verified: a
// put must reach full replication, a get must return the bytes that
// were put, a stat the right size. rec, when set, receives one span
// per operation named layer+"."+kind.
func runRound(ctx context.Context, e *dfsEnv, st stack, plan roundPlan, round int, rec *recorder, layer string) roundResult {
	var res roundResult
	type clientOut struct {
		lat    [nKinds][]float64
		bytes  [nKinds]int64
		ops    int
		failed int
		err    error
	}
	for pi, ph := range plan {
		outs := make([]clientOut, len(ph))
		var writers atomic.Int64
		for _, cp := range ph {
			if !cp.loop {
				writers.Add(1)
			}
		}
		var wg sync.WaitGroup
		start := time.Now()
		for ci := range ph {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				cp, out := ph[ci], &outs[ci]
				if !cp.loop {
					defer writers.Add(-1)
				}
				for i := 0; ; i++ {
					if cp.loop {
						if writers.Load() == 0 {
							return
						}
					} else if i >= len(cp.ops) {
						return
					}
					o := cp.ops[i%len(cp.ops)]
					opCtx, cancel := context.WithTimeout(ctx, opTimeout)
					t0 := time.Now()
					err := e.doOp(opCtx, st, ci, o)
					t1 := time.Now()
					cancel()
					out.ops++
					out.lat[o.kind] = append(out.lat[o.kind], float64(t1.Sub(t0))/1e6)
					if o.kind != opStat {
						out.bytes[o.kind] += int64(e.w.fileBytes)
					}
					if err != nil {
						out.failed++
						if out.err == nil {
							out.err = fmt.Errorf("%s %s: %w", kindNames[o.kind], o.name, err)
						}
					}
					if rec != nil {
						opID := uint64(round+1)<<40 | uint64(pi)<<36 | uint64(ci)<<32 | uint64(i)
						rec.add(layer+"."+kindNames[o.kind], opID, 0, t0, t1)
					}
				}
			}(ci)
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		res.wall += wall
		var ran [nKinds]bool
		for _, out := range outs {
			res.ops += out.ops
			res.failed += out.failed
			if res.firstErr == nil {
				res.firstErr = out.err
			}
			for k := opKind(0); k < nKinds; k++ {
				res.lat[k] = append(res.lat[k], out.lat[k]...)
				res.userBytes[k] += out.bytes[k]
				ran[k] = ran[k] || len(out.lat[k]) > 0
			}
		}
		for k := range ran {
			if ran[k] {
				res.kindWall[k] += wall
			}
		}
	}
	plan.eachPut(func(_ int, o op) { res.written = append(res.written, o.name) })
	return res
}

// eachPut calls fn for every put of the plan's non-looping clients:
// the files the round leaves behind.
func (p roundPlan) eachPut(fn func(client int, o op)) {
	for _, ph := range p {
		for c, cp := range ph {
			if cp.loop {
				continue
			}
			for _, o := range cp.ops {
				if o.kind == opPut {
					fn(c, o)
				}
			}
		}
	}
}

// errCheck marks an operation that returned without error but with the
// wrong result.
var errCheck = errors.New("benchmark: output check failed")

func (e *dfsEnv) doOp(ctx context.Context, st stack, client int, o op) error {
	switch o.kind {
	case opPut:
		rep, err := st.put(ctx, client, o.name, e.payloads[o.payload])
		if err != nil {
			return err
		}
		if rep.MinReplication != dfsRF {
			return fmt.Errorf("%w: replication %d of %d", errCheck, rep.MinReplication, dfsRF)
		}
	case opGet:
		got, err := st.get(ctx, client, o.name)
		if err != nil {
			return err
		}
		// Byte-for-byte against what was put: stronger than comparing
		// digests and cheap enough not to compete with the servers for
		// the two cores.
		if !bytes.Equal(got, e.payloads[o.payload]) {
			return fmt.Errorf("%w: %d bytes differ from what was put", errCheck, len(got))
		}
	case opStat:
		size, err := st.stat(ctx, client, o.name)
		if err != nil {
			return err
		}
		if size != int64(e.w.fileBytes) {
			return fmt.Errorf("%w: stat size %d, want %d", errCheck, size, e.w.fileBytes)
		}
	}
	return nil
}

// cleanup deletes a round's files engine-direct, outside any timing,
// and collects the garbage the round made.
func cleanup(ctx context.Context, nn *dfs.NameNode, names []string, clients int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(names); i += clients {
				dctx, cancel := context.WithTimeout(ctx, opTimeout)
				err := nn.DeleteContext(dctx, names[i])
				cancel()
				if err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("cleanup %s: %w", names[i], err)
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.GC()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preloadFiles stores the files a read-mostly client draws from.
func (e *dfsEnv) preloadFiles(ctx context.Context, st stack, tally *loadStats) error {
	e.preNames = e.preNames[:0]
	for i := 0; i < e.w.preload; i++ {
		o := op{kind: opPut, name: e.fileName(-2, 0, i), payload: i % len(e.payloads)}
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		err := e.doOp(opCtx, st, 0, o)
		cancel()
		tally.attempted++
		if err != nil {
			tally.failed++
			return fmt.Errorf("preload %s: %w", o.name, err)
		}
		e.preNames = append(e.preNames, o.name)
	}
	return nil
}

// loadStats pools the rounds of a run.
type loadStats struct {
	rounds    []roundResult
	setups    []float64 // seconds per epoch
	attempted int
	failed    int
	firstErr  error
}

func (s *loadStats) note(r roundResult, timed bool) {
	s.attempted += r.ops
	s.failed += r.failed
	if s.firstErr == nil {
		s.firstErr = r.firstErr
	}
	if timed {
		r.written = nil
		s.rounds = append(s.rounds, r)
	}
}

func (s *loadStats) fail(err error) {
	s.attempted++
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// roundRates lists each timed round's operations per wall second.
func (s *loadStats) roundRates() []float64 {
	var xs []float64
	for i := range s.rounds {
		xs = append(xs, s.rounds[i].opsPerSec())
	}
	return xs
}

// opsPerSec is the median over rounds of operations per wall second.
func (s *loadStats) opsPerSec() float64 { return median(s.roundRates()) }

// lat pools one kind's latencies over all timed rounds.
func (s *loadStats) lat(k opKind) []float64 {
	var xs []float64
	for i := range s.rounds {
		xs = append(xs, s.rounds[i].lat[k]...)
	}
	return xs
}

// cycleP50 sums the median latency of every operation kind that ran.
func (s *loadStats) cycleP50() float64 {
	var sum float64
	for k := opKind(0); k < nKinds; k++ {
		sum += quantile(s.lat(k), 0.5)
	}
	return sum
}

func (s *loadStats) totalOps() int {
	n := 0
	for i := range s.rounds {
		n += s.rounds[i].ops
	}
	return n
}

// roundMBs lists one kind's MiB/s per round.
func (s *loadStats) roundMBs(k opKind) []float64 {
	var xs []float64
	for i := range s.rounds {
		if v := s.rounds[i].mbPerSec(k); v > 0 {
			xs = append(xs, v)
		}
	}
	return xs
}

// target is a stack together with the NameNode its files are cleaned
// up through.
type target struct {
	st    stack
	nn    *dfs.NameNode
	layer string
}

// roundHook lets the traced run read counters around each timed round,
// so that what cleanup does between rounds is not counted.
type roundHook struct {
	before func()
	after  func(r *roundResult)
}

// runEpochRounds runs the warm-up round and then timed rounds on one
// target until budget has passed (and at least one), deleting each
// round's files in between. The files of the last round, whose
// index is returned, are left in place for checks that need them. warm
// is when the warm-up ended.
func runEpochRounds(ctx context.Context, e *dfsEnv, tg target, budget time.Duration, rec *recorder, hook *roundHook, tally *loadStats) (warm time.Time, lastRound int, err error) {
	r := runRound(ctx, e, tg.st, e.w.plan(e, -1), -1, nil, tg.layer)
	tally.note(r, false)
	if err := cleanup(ctx, tg.nn, r.written, dfsClients); err != nil {
		return warm, 0, err
	}
	warm = time.Now()
	for round := 0; ; round++ {
		if hook != nil {
			hook.before()
		}
		r := runRound(ctx, e, tg.st, e.w.plan(e, round), round, rec, tg.layer)
		if hook != nil {
			hook.after(&r)
		}
		tally.note(r, true)
		if time.Since(warm) >= budget {
			return warm, round, nil
		}
		if err := cleanup(ctx, tg.nn, r.written, dfsClients); err != nil {
			return warm, 0, err
		}
	}
}
