package svc

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// loadConfig fixes the overload-soak cluster and its per-request budget.
type loadConfig struct {
	nodes, replication int
	blockSize          int64
	files              int           // preloaded read set; the warm-up reads also fill the hedge tracker
	grayDelay          time.Duration // far past opTimeout: waiting it out burns the whole budget
	opTimeout          time.Duration
	duration           time.Duration
	// maxInflight and queue bound the NameNode's admission gate: queued
	// waiters sleep server-side, so moderate excess smooths into queue
	// waits while the overload cell's surplus (far above
	// maxInflight+queue) is shed instead of buffered into collapse.
	maxInflight, queue int
	// dnInflight and dnQueue bound every DataNode the same way: its v2
	// streams are where the bytes queue now.
	dnInflight, dnQueue int
	seed                uint64
}

// loadCell is what one measured window produced. Latencies are in
// seconds.
type loadCell struct {
	seconds           float64
	inWindow          int // ok ops that ended inside the window
	attempted, failed int
	okLat, shedLat    []float64 // shed = failed with dfs.ErrOverload
	ackedWrites       int
	lostAcked         int
	shedsServer       int64 // admission sheds, NameNode + DataNodes
	breakerOpens      int64
}

func (c loadCell) goodput() float64 { return float64(c.inWindow) / c.seconds }

// quantile reads the q-quantile of latencies in seconds (0 when empty).
func quantile(lat []float64, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	return time.Duration(stats.Quantile(lat, q) * float64(time.Second))
}

// loadPayload builds one deterministic block. The pattern varies per op
// so the readback hashes catch cross-op mixups.
func loadPayload(size int64, seed uint64, op int) []byte {
	data := make([]byte, size)
	x := seed*0x9E3779B97F4A7C15 + uint64(op)*0xBF58476D1CE4E5B9 + 1
	for i := range data {
		// xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x)
	}
	return data
}

// loadCluster boots one instrumented loopback cluster: admission
// control on the NameNode and every DataNode, per-node breakers, and
// hedged reads.
func loadCluster(cfg loadConfig) (*LocalCluster, *chaos.NetFaults, error) {
	c, err := cluster.New(make([]cluster.Node, cfg.nodes))
	if err != nil {
		return nil, nil, err
	}
	faults, err := chaos.NewNetFaults(stats.NewRNG(cfg.seed ^ 0xfa017))
	if err != nil {
		return nil, nil, err
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(cfg.seed), faults, NameNodeConfig{
		BlockSize:   cfg.blockSize,
		Replication: cfg.replication,
		Admission: AdmissionConfig{
			MaxInflight: cfg.maxInflight,
			Queue:       cfg.queue,
		},
		Breaker: BreakerConfig{
			Threshold: 2,
			// Longer than learning and both cells' windows together:
			// a gray node walled off stays walled off instead of
			// burning a probe timeout per cooldown mid-cell.
			Cooldown: 5 * cfg.duration,
		},
		HedgeReads: true,
		Hedge: HedgeConfig{
			Quantile:   0.95,
			Multiplier: 3,
			MinDelay:   25 * time.Millisecond,
			MinSamples: 8,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	for _, dn := range lc.DNs {
		dn.SetAdmission(AdmissionConfig{MaxInflight: cfg.dnInflight, Queue: cfg.dnQueue})
	}
	return lc, faults, nil
}

// serverSheds sums admission sheds across the NameNode and every
// DataNode.
func serverSheds(lc *LocalCluster) int64 {
	var total int64
	if st := lc.NN.Admission().Stats(); st != nil {
		total += st.Shed()
	}
	for _, dn := range lc.DNs {
		if st := dn.Admission().Stats(); st != nil {
			total += st.Shed()
		}
	}
	return total
}

// breakerOpens reads how often a client's own per-DataNode breakers
// opened: the client moves the bytes, so its breakers are the ones
// that meet the gray nodes.
func breakerOpens(cl *Client) int64 {
	if st := cl.breakerStats(); st != nil {
		return st.Opens.Load()
	}
	return 0
}

// ackedWrite records one write the cluster acknowledged during the
// window, for the post-cell durability readback.
type ackedWrite struct {
	name string
	hash [32]byte
}

// loadRun is one instrumented cluster and its closed-loop workers.
// Each worker first learns the gray nodes for itself, until its own
// breakers are open on every one (or learnFor has passed); after that
// it runs only inside the windows window opens. Goodput is counted in
// windows alone: what a client pays once to learn a gray node — two
// setup failures per node — is outside every window, as are the
// backoff sleeps cut short at a window's end and the ops still running
// there, so a window counts the ops that ended inside it over its own
// length, whichever cell it belongs to. Every other gate sees the
// learning ops too: they are where a client meets a gray node before
// its breaker has opened.
type loadRun struct {
	cfg       loadConfig
	name      string
	gray      int
	lc        *LocalCluster
	faults    *chaos.NetFaults
	pre       *Client
	preNames  []string
	preHashes [][32]byte
	results   []workerResult
	windows   chan time.Time // one deadline per worker per window
	ended     sync.WaitGroup // workers still learning, or in the window
	exited    sync.WaitGroup
	shedBase  int64
	seconds   float64
}

// workerResult is every op one worker ran, learning or in a window;
// only inWindow, the goodput count, leaves learning out.
type workerResult struct {
	okLat, shedLat    []float64
	inWindow          int // ok ops that ended by their window's deadline
	attempted, failed int
	acked             []ackedWrite
	breakerOpens      int64
}

// learnFor bounds how long a worker learns the gray nodes.
const learnFor = 3 * time.Second

// startLoadRun boots a fresh instrumented cluster, preloads the read
// set, warms the hedge tracker, turns the first gray nodes gray, and
// returns once every worker has learned them.
func startLoadRun(ctx context.Context, cfg loadConfig, name string, workers, gray int) (*loadRun, error) {
	lc, faults, err := loadCluster(cfg)
	if err != nil {
		return nil, err
	}
	r := &loadRun{cfg: cfg, name: name, gray: gray, lc: lc, faults: faults, pre: lc.Client("load-pre"),
		preNames: make([]string, cfg.files), preHashes: make([][32]byte, cfg.files),
		results: make([]workerResult, workers), windows: make(chan time.Time)}

	// Preload the read set and warm the hedge latency tracker before
	// any gray failure or load arrives — baseline capacity is the
	// healthy cluster's.
	for i := range r.preNames {
		r.preNames[i] = fmt.Sprintf("load-pre-%d", i)
		data := loadPayload(cfg.blockSize, cfg.seed, i)
		r.preHashes[i] = sha256.Sum256(data)
		if _, _, err := r.pre.CopyFromLocal(ctx, r.preNames[i], data, true); err != nil {
			r.close(ctx)
			return nil, fmt.Errorf("preload %s: %w", r.preNames[i], err)
		}
	}
	for _, n := range r.preNames {
		if _, err := r.pre.ReadFile(ctx, n); err != nil {
			r.close(ctx)
			return nil, fmt.Errorf("warmup read %s: %w", n, err)
		}
	}

	for id := 0; id < gray; id++ {
		faults.SetGray(endpointName(cluster.NodeID(id)), cfg.grayDelay)
	}
	r.shedBase = serverSheds(lc)
	r.ended.Add(workers)
	r.exited.Add(workers)
	for w := range r.results {
		go r.worker(ctx, w)
	}
	r.ended.Wait()
	return r, nil
}

// window lets every worker run for d, and returns once each has ended
// its last op.
func (r *loadRun) window(d time.Duration) {
	r.ended.Add(len(r.results))
	deadline := time.Now().Add(d)
	for range r.results {
		r.windows <- deadline
	}
	r.ended.Wait()
	r.seconds += d.Seconds()
}

// worker drives one closed-loop client: learning, then one run per
// window until the windows channel closes.
func (r *loadRun) worker(ctx context.Context, w int) {
	defer r.exited.Done()
	res := &r.results[w]
	cl := r.lc.Client(fmt.Sprintf("load-%s-%d", r.name, w))
	defer cl.Close()
	defer func() { res.breakerOpens = breakerOpens(cl) }()
	g := stats.NewRNG(r.cfg.seed + uint64(w)*131 + 17)
	op := 0
	var backoff time.Duration
	// next runs and tallies one op, and reports whether it succeeded.
	// A shed backs off exponentially, to at most until: a shed means
	// the cluster is saturated, and immediate retries only burn CPU the
	// admitted work needs. Surplus workers converge to long sleeps with
	// occasional probes — the surplus keeps getting shed, cheaply.
	next := func(until time.Time) bool {
		lat, wrote, counted, err := r.step(ctx, cl, g, w, op)
		op++
		if !counted {
			return false
		}
		res.tally(lat, wrote, err)
		switch {
		case err == nil:
			backoff = 0
			return true
		case errors.Is(err, dfs.ErrOverload):
			if backoff == 0 {
				backoff = r.cfg.opTimeout / 32
			} else if backoff < r.cfg.opTimeout {
				backoff *= 2
			}
			time.Sleep(min(backoff, time.Until(until)))
		}
		return false
	}
	for learnBy := time.Now().Add(learnFor); !cl.walledOff(r.gray) && time.Now().Before(learnBy); {
		next(learnBy)
	}
	r.ended.Done()
	for deadline := range r.windows {
		for backoff = 0; time.Now().Before(deadline); {
			if next(deadline) && !time.Now().After(deadline) {
				res.inWindow++
			}
		}
		r.ended.Done()
	}
}

// tally counts one op toward every gate but goodput.
func (res *workerResult) tally(lat float64, wrote ackedWrite, err error) {
	res.attempted++
	switch {
	case err == nil:
		res.okLat = append(res.okLat, lat)
		if wrote.name != "" {
			res.acked = append(res.acked, wrote)
		}
	case errors.Is(err, dfs.ErrOverload):
		res.shedLat = append(res.shedLat, lat)
	default:
		res.failed++
	}
}

// step runs the worker's op-th operation: a background stat, which
// never counts toward goodput, a write, or a verified read.
func (r *loadRun) step(ctx context.Context, cl *Client, g *stats.RNG, w, op int) (lat float64, wrote ackedWrite, counted bool, err error) {
	opCtx, cancel := context.WithTimeout(ctx, r.cfg.opTimeout)
	defer cancel()
	start := time.Now()
	switch {
	case op%7 == 3:
		// Background traffic rides along so brownout has something
		// to shed.
		_, _ = cl.Stat(opCtx, r.preNames[g.Uint64()%uint64(len(r.preNames))])
		return 0, ackedWrite{}, false, nil
	case op%3 == 0:
		data := loadPayload(r.cfg.blockSize, r.cfg.seed+uint64(w)+1000, op)
		wrote = ackedWrite{name: fmt.Sprintf("load-%s-w%d-%d", r.name, w, op), hash: sha256.Sum256(data)}
		_, _, err = cl.CopyFromLocal(opCtx, wrote.name, data, true)
	default:
		idx := g.Uint64() % uint64(len(r.preNames))
		var got []byte
		got, err = cl.ReadFile(opCtx, r.preNames[idx])
		if err == nil && sha256.Sum256(got) != r.preHashes[idx] {
			err = fmt.Errorf("read bytes differ from written for %s", r.preNames[idx])
		}
	}
	return time.Since(start).Seconds(), wrote, true, err
}

// finish stops the workers, sums what they saw, and audits the
// writes: with the gray injection cleared, every write acknowledged,
// while learning or in a window, must read back byte-identical.
// Replicas only ever landed on healthy nodes (a gray hop stalls past
// the op deadline and fails), so open breakers on the gray nodes
// cannot mask a lost write here.
func (r *loadRun) finish(ctx context.Context) loadCell {
	defer r.close(ctx)
	close(r.windows)
	r.exited.Wait()
	cell := loadCell{seconds: r.seconds, shedsServer: serverSheds(r.lc) - r.shedBase}
	var acked []ackedWrite
	for i := range r.results {
		res := &r.results[i]
		cell.attempted += res.attempted
		cell.failed += res.failed
		cell.inWindow += res.inWindow
		cell.okLat = append(cell.okLat, res.okLat...)
		cell.shedLat = append(cell.shedLat, res.shedLat...)
		acked = append(acked, res.acked...)
		cell.breakerOpens += res.breakerOpens
	}
	for id := 0; id < r.gray; id++ {
		r.faults.ClearGray(endpointName(cluster.NodeID(id)))
	}
	verify := r.lc.Client("load-verify")
	defer verify.Close()
	cell.ackedWrites = len(acked)
	for _, aw := range acked {
		rbCtx, cancel := context.WithTimeout(ctx, r.cfg.grayDelay+2*r.cfg.opTimeout)
		got, rerr := verify.ReadFile(rbCtx, aw.name)
		cancel()
		if rerr != nil || sha256.Sum256(got) != aw.hash {
			cell.lostAcked++
		}
	}
	return cell
}

func (r *loadRun) close(ctx context.Context) {
	r.pre.Close()
	_ = r.lc.Close(context.WithoutCancel(ctx))
}

// TestOverloadSoak is the headline robustness claim: at several times
// the unloaded offered load, with a fraction of the DataNodes gray
// (alive heartbeats, crawling service), the cluster keeps goodput
// within the gated factor of its unloaded capacity, every shed fails
// fast with the overload taxonomy, and no acknowledged write is lost.
// A build that quietly drops admission control, resets deadline
// budgets per hop, or loses acked writes under load fails here.
func TestOverloadSoak(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const (
		workers    = 3 // unloaded closed-loop client count
		loadFactor = 8
		gray       = 2 // 30 % of 6 DataNodes, rounded
	)
	cfg := loadConfig{
		nodes:       6,
		replication: 3,
		blockSize:   8 << 10,
		files:       12,
		grayDelay:   1500 * time.Millisecond,
		opTimeout:   300 * time.Millisecond,
		// Each cell's measured time, in alternating windows. Every
		// client learns the gray nodes for itself — its own breakers,
		// two 75 ms setup-budget failures per gray node — before the
		// first window opens, so the windows price steady state and
		// not how fast a call is beside that one-off cost.
		duration: 3 * time.Second,
		// The NameNode's gate now meters placement decisions and block-map
		// lookups — tens of microseconds each, no bytes — so it is sized
		// for that: one in flight and room for the baseline's other two
		// clients to wait. The unloaded cell never overruns it; eight
		// times the clients do, in bursts, and are refused at allocate or
		// locate, before a byte moves.
		maxInflight: 1,
		queue:       workers - 1,
		// The DataNodes keep the limits they had when the NameNode's gate
		// was six wide: twice that, since one client op fans out to
		// several pipeline and read streams.
		dnInflight: 4 * workers,
		dnQueue:    6 * workers,
		seed:       7,
	}
	// Both cells are booted and have learned before either is
	// measured, and their windows alternate, so a slow second of the
	// machine's falls on both alike rather than on one cell's whole
	// window.
	baseRun, err := startLoadRun(ctx, cfg, "baseline", workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	overRun, err := startLoadRun(ctx, cfg, "overload", workers*loadFactor, gray)
	if err != nil {
		baseRun.finish(ctx)
		t.Fatal(err)
	}
	const windows = 6
	for i := 0; i < windows; i++ {
		baseRun.window(cfg.duration / windows)
		overRun.window(cfg.duration / windows)
	}
	base, over := baseRun.finish(ctx), overRun.finish(ctx)
	for _, c := range []struct {
		name string
		cell loadCell
	}{{"baseline", base}, {"overload", over}} {
		t.Logf("%-8s %.1f ok/s: attempted=%d ok=%d shed=%d failed=%d p50=%v p99=%v shed p50=%v p99=%v acked=%d lost=%d server sheds=%d breaker opens=%d",
			c.name, c.cell.goodput(), c.cell.attempted, len(c.cell.okLat), len(c.cell.shedLat), c.cell.failed,
			quantile(c.cell.okLat, 0.5), quantile(c.cell.okLat, 0.99),
			quantile(c.cell.shedLat, 0.5), quantile(c.cell.shedLat, 0.99),
			c.cell.ackedWrites, c.cell.lostAcked, c.cell.shedsServer, c.cell.breakerOpens)
		if len(c.cell.okLat) == 0 {
			t.Fatalf("%s cell had no successful requests", c.name)
		}
	}
	ratio := over.goodput() / base.goodput()
	t.Logf("overload goodput is %.3fx baseline", ratio)
	if ratio < 0.70 {
		t.Errorf("overload goodput is %.2fx baseline, gate is 0.70x", ratio)
	}
	if len(over.shedLat) == 0 {
		t.Errorf("%dx offered load produced no sheds: admission control is not engaging", loadFactor)
	}
	// Sheds must fail fast: the typical shed (queue full, brownout)
	// answers immediately, and even the slowest (a queued request whose
	// budget expired waiting) never outlives its own deadline by much.
	if p50 := quantile(over.shedLat, 0.5); p50 > cfg.opTimeout/2 {
		t.Errorf("median shed took %v against a %v budget: sheds are not failing fast", p50, cfg.opTimeout)
	}
	if p99 := quantile(over.shedLat, 0.99); p99 > cfg.opTimeout*3/2 {
		t.Errorf("p99 shed took %v against a %v budget", p99, cfg.opTimeout)
	}
	// Served or shed, nothing else: a refusal is typed wherever it is
	// made — the NameNode's gate at allocate and locate, or a DataNode's
	// at the stream — so an overloaded op that surfaces as anything but
	// dfs.ErrOverload (ErrNoLiveNodes, ErrNoReplica, a spent deadline)
	// lands here. The 1 % is room for an op that meets a gray node before
	// its client's breaker has.
	if over.failed*100 > over.attempted {
		t.Errorf("%d of %d overloaded ops failed without the overload taxonomy, gate is 1%%", over.failed, over.attempted)
	}
	if over.ackedWrites == 0 {
		t.Error("overload cell acknowledged no writes")
	}
	if over.lostAcked != 0 {
		t.Errorf("%d acknowledged writes lost under overload", over.lostAcked)
	}
	if over.breakerOpens == 0 {
		t.Error("no breaker ever opened: gray nodes were never walled off")
	}
	if over.shedsServer == 0 {
		t.Error("server-side admission counted no sheds")
	}
}
