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
	attempted, failed int
	okLat, shedLat    []float64 // shed = failed with dfs.ErrOverload
	ackedWrites       int
	lostAcked         int
	shedsServer       int64 // admission sheds, NameNode + DataNodes
	breakerOpens      int64
}

func (c loadCell) goodput() float64 { return float64(len(c.okLat)) / c.seconds }

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
			// Longer than the measurement window: a gray node walled
			// off stays walled off instead of burning a probe timeout
			// per cooldown mid-cell.
			Cooldown: 2 * cfg.duration,
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

// runLoadCell boots a fresh instrumented cluster, preloads the read
// set, warms the hedge tracker, turns the first gray nodes gray, then
// drives workers closed-loop for the window and classifies every
// request. After the window the gray injection is cleared and every
// acknowledged write is read back byte-identical.
func runLoadCell(ctx context.Context, cfg loadConfig, name string, workers, gray int) (loadCell, error) {
	lc, faults, err := loadCluster(cfg)
	if err != nil {
		return loadCell{}, err
	}
	defer func() { _ = lc.Close(context.WithoutCancel(ctx)) }()

	// Preload the read set and warm the hedge latency tracker before
	// any gray failure or load arrives — baseline capacity is the
	// healthy cluster's.
	pre := lc.Client("load-pre")
	defer pre.Close()
	preNames := make([]string, cfg.files)
	preHashes := make([][32]byte, cfg.files)
	for i := range preNames {
		preNames[i] = fmt.Sprintf("load-pre-%d", i)
		data := loadPayload(cfg.blockSize, cfg.seed, i)
		preHashes[i] = sha256.Sum256(data)
		if _, _, err := pre.CopyFromLocal(ctx, preNames[i], data, true); err != nil {
			return loadCell{}, fmt.Errorf("preload %s: %w", preNames[i], err)
		}
	}
	for _, n := range preNames {
		if _, err := pre.ReadFile(ctx, n); err != nil {
			return loadCell{}, fmt.Errorf("warmup read %s: %w", n, err)
		}
	}

	for id := 0; id < gray; id++ {
		faults.SetGray(endpointName(cluster.NodeID(id)), cfg.grayDelay)
	}
	shedBase := serverSheds(lc)

	type workerResult struct {
		okLat, shedLat    []float64
		attempted, failed int
		acked             []ackedWrite
		breakerOpens      int64
	}
	results := make([]workerResult, workers)
	t0 := time.Now()
	deadline := t0.Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			cl := lc.Client(fmt.Sprintf("load-%s-%d", name, w))
			defer cl.Close()
			defer func() { res.breakerOpens = breakerOpens(cl) }()
			g := stats.NewRNG(cfg.seed + uint64(w)*131 + 17)
			backoff := time.Duration(0)
			for op := 0; time.Now().Before(deadline); op++ {
				opCtx, cancel := context.WithTimeout(ctx, cfg.opTimeout)
				opStart := time.Now()
				var err error
				wrote := ackedWrite{}
				switch {
				case op%7 == 3:
					// Background traffic rides along so brownout has
					// something to shed; it never counts toward goodput.
					_, _ = cl.Stat(opCtx, preNames[g.Uint64()%uint64(len(preNames))])
					cancel()
					continue
				case op%3 == 0:
					data := loadPayload(cfg.blockSize, cfg.seed+uint64(w)+1000, op)
					wrote = ackedWrite{
						name: fmt.Sprintf("load-%s-w%d-%d", name, w, op),
						hash: sha256.Sum256(data),
					}
					_, _, err = cl.CopyFromLocal(opCtx, wrote.name, data, true)
				default:
					idx := g.Uint64() % uint64(len(preNames))
					var got []byte
					got, err = cl.ReadFile(opCtx, preNames[idx])
					if err == nil && sha256.Sum256(got) != preHashes[idx] {
						err = fmt.Errorf("read bytes differ from written for %s", preNames[idx])
					}
				}
				lat := time.Since(opStart).Seconds()
				cancel()
				res.attempted++
				switch {
				case err == nil:
					res.okLat = append(res.okLat, lat)
					if wrote.name != "" {
						res.acked = append(res.acked, wrote)
					}
					backoff = 0
				case errors.Is(err, dfs.ErrOverload):
					res.shedLat = append(res.shedLat, lat)
					// Exponential backoff: a shed means the cluster is
					// saturated, and immediate retries only burn CPU the
					// admitted work needs. Surplus workers converge to long
					// sleeps with occasional probes — the surplus keeps
					// getting shed, cheaply.
					if backoff == 0 {
						backoff = cfg.opTimeout / 32
					} else if backoff < cfg.opTimeout {
						backoff *= 2
					}
					time.Sleep(backoff)
				default:
					res.failed++
				}
			}
		}(w)
	}
	wg.Wait()

	cell := loadCell{seconds: time.Since(t0).Seconds()}
	var acked []ackedWrite
	for i := range results {
		res := &results[i]
		cell.attempted += res.attempted
		cell.failed += res.failed
		cell.okLat = append(cell.okLat, res.okLat...)
		cell.shedLat = append(cell.shedLat, res.shedLat...)
		acked = append(acked, res.acked...)
		cell.breakerOpens += res.breakerOpens
	}
	cell.shedsServer = serverSheds(lc) - shedBase

	// Durability audit: with the gray injection cleared, every write
	// acknowledged during the window must read back byte-identical.
	// Replicas only ever landed on healthy nodes (a gray hop stalls
	// past the op deadline and fails), so open breakers on the gray
	// nodes cannot mask a lost write here.
	for id := 0; id < gray; id++ {
		faults.ClearGray(endpointName(cluster.NodeID(id)))
	}
	verify := lc.Client("load-verify")
	defer verify.Close()
	cell.ackedWrites = len(acked)
	for _, aw := range acked {
		rbCtx, cancel := context.WithTimeout(ctx, cfg.grayDelay+2*cfg.opTimeout)
		got, rerr := verify.ReadFile(rbCtx, aw.name)
		cancel()
		if rerr != nil || sha256.Sum256(got) != aw.hash {
			cell.lostAcked++
		}
	}
	return cell, nil
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
		// Every client learns the gray nodes for itself — its own
		// breakers, two 75 ms setup-budget failures per gray node — so the
		// window is long enough for that one-off cost to weigh what it
		// would in any run longer than a blink.
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
	base, err := runLoadCell(ctx, cfg, "baseline", workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	over, err := runLoadCell(ctx, cfg, "overload", workers*loadFactor, gray)
	if err != nil {
		t.Fatal(err)
	}
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
	if ratio := over.goodput() / base.goodput(); ratio < 0.70 {
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
