package dfs

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/stats"
)

func dedicatedNameNode(t *testing.T, n int) (*NameNode, *Client) {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(nn, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = 100
	return nn, cl
}

func TestDynamicRFConfigValidation(t *testing.T) {
	nn, _ := testClient(t, 4, 100)
	bad := []DynamicRFConfig{
		{MinRF: -1},
		{MinRF: 4, MaxRF: 2},
		{HotReads: -1},
		{Hysteresis: -3},
	}
	for _, cfg := range bad {
		if err := nn.EnableDynamicRF(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("config %+v: error %v does not wrap ErrBadConfig", cfg, err)
		}
	}
	if err := nn.EnableDynamicRF(DynamicRFConfig{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestDynRFNeverBelowFloorOrAboveCeiling(t *testing.T) {
	// Property (ISSUE satellite): whatever the signals and the declared
	// replication, the controller's target stays inside [MinRF, MaxRF].
	cfg := DynamicRFConfig{MinRF: 2, MaxRF: 4, Hysteresis: 1}.withDefaults()
	d := newDynRF(cfg, &metrics.ResilienceCounters{})
	// Declared degrees outside the band are clamped on first sight.
	if got := appliedRF(d, "low", 1); got != 2 {
		t.Fatalf("declared 1 clamped to %d, want floor 2", got)
	}
	if got := appliedRF(d, "high", 9); got != 4 {
		t.Fatalf("declared 9 clamped to %d, want ceiling 4", got)
	}
	// Drive the signals through extremes for many passes.
	g := stats.NewRNG(1)
	for pass := 0; pass < 1000; pass++ {
		if g.Float64() < 0.3 {
			for r := 0; r < g.IntN(20); r++ {
				d.observeRead("f", 1)
			}
		}
		vol := 3 * g.Float64() // sweeps both sides of the 1.5 threshold
		got := d.step("f", 3, vol)
		if got < cfg.MinRF || got > cfg.MaxRF {
			t.Fatalf("pass %d: target %d escaped [%d, %d]", pass, got, cfg.MinRF, cfg.MaxRF)
		}
	}
}

func TestDynRFHysteresisBlocksFlapping(t *testing.T) {
	// A proposal that never persists for Hysteresis consecutive passes
	// must never move the applied target (no oscillation).
	cfg := DynamicRFConfig{MinRF: 2, MaxRF: 5, Hysteresis: 2}.withDefaults()
	ctr := &metrics.ResilienceCounters{}
	d := newDynRF(cfg, ctr)
	for pass := 0; pass < 100; pass++ {
		vol := 0.5 // calm: proposal = MinRF = 2 = applied, streak resets
		if pass%2 == 1 {
			vol = 2 // volatile: proposal = 3, streak reaches only 1
		}
		if got := d.step("f", 2, vol); got != 2 {
			t.Fatalf("pass %d: flapping signal moved target to %d", pass, got)
		}
	}
	if ctr.RFRaises.Load() != 0 || ctr.RFLowers.Load() != 0 {
		t.Fatalf("flapping signal recorded moves: raises %d lowers %d",
			ctr.RFRaises.Load(), ctr.RFLowers.Load())
	}
}

func TestDynRFConvergesOneStepPerAgreement(t *testing.T) {
	// A persistent signal walks the target one step per Hysteresis
	// agreeing passes, then holds it without further counter churn.
	cfg := DynamicRFConfig{MinRF: 2, MaxRF: 5, Hysteresis: 2, HotReads: 3}.withDefaults()
	ctr := &metrics.ResilienceCounters{}
	d := newDynRF(cfg, ctr)
	hot := func() {
		// Re-heat every pass so decay never cools the file below the
		// very-hot threshold.
		for r := 0; r < 30; r++ {
			d.observeRead("f", 1)
		}
	}
	// Volatile + very hot: proposal = 2+1+1+1 clamped to 5.
	want := []int{2, 3, 3, 4, 4, 5, 5, 5, 5}
	for pass, w := range want {
		hot()
		if got := d.step("f", 2, 2.0); got != w {
			t.Fatalf("pass %d: target %d, want %d", pass, got, w)
		}
	}
	raises := ctr.RFRaises.Load()
	if raises != 3 {
		t.Fatalf("raises = %d, want 3 (2->5)", raises)
	}
	// Signal gone: the target must descend one step per Hysteresis
	// passes back to the floor, and stay there.
	want = []int{5, 4, 4, 3, 3, 2, 2, 2}
	for pass, w := range want {
		if got := d.step("f", 2, 0.5); got != w {
			t.Fatalf("cooldown pass %d: target %d, want %d", pass, got, w)
		}
	}
	if lowers := ctr.RFLowers.Load(); lowers != 3 {
		t.Fatalf("lowers = %d, want 3 (5->2)", lowers)
	}
}

// TestReadHeatFollowsTheRead pins which client reads count toward a
// file's heat: a whole-file read counts every block once (through
// Locate), and a repair or redistribute read counts once each block it
// reads.
func TestReadHeatFollowsTheRead(t *testing.T) {
	const blocks = 6
	ctx := context.Background()
	// gained counts the blocks that got a holder they did not have:
	// the blocks a redistribution had to read.
	gained := func(before, after *FileMeta) int {
		n := 0
		for i, bm := range after.Blocks {
			for _, r := range bm.Replicas {
				if !slices.Contains(before.Blocks[i].Replicas, r) {
					n++
					break
				}
			}
		}
		return n
	}
	all := func(_, _ *FileMeta) int { return blocks }
	cases := []struct {
		name  string
		op    func(cl *Client) error
		reads func(before, after *FileMeta) int
	}{
		{"read file", func(cl *Client) error { _, err := cl.ReadFileContext(ctx, "f"); return err }, all},
		// Replication 1 under a floor of 2: every block is repaired.
		{"repair", func(cl *Client) error { _, err := cl.MaintainReplication(ctx, "f", false); return err }, all},
		{"rebalance", func(cl *Client) error { _, err := cl.Rebalance(ctx, "f"); return err }, gained},
		{"adapt", func(cl *Client) error { _, err := cl.Adapt(ctx, "f"); return err }, gained},
	}
	for _, tc := range cases {
		nn, cl := dedicatedNameNode(t, 8)
		if _, _, err := cl.CopyFromLocalReportContext(ctx, "f", payload(blocks*100), false); err != nil {
			t.Fatal(err)
		}
		if err := nn.EnableDynamicRF(DynamicRFConfig{MinRF: 2, MaxRF: 5, Hysteresis: 1}); err != nil {
			t.Fatal(err)
		}
		before, err := nn.Stat("f")
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.op(cl); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after, err := nn.Stat("f")
		if err != nil {
			t.Fatal(err)
		}
		want := tc.reads(before, after)
		if want == 0 {
			t.Fatalf("%s read no block; the case pins nothing", tc.name)
		}
		d := nn.dynamic.Load()
		d.mu.Lock()
		heat := d.files["f"].heat
		d.mu.Unlock()
		if heat != float64(want) {
			t.Errorf("%s: heat %v, want %d (one per block read)", tc.name, heat, want)
		}
	}
}

func TestDynamicRFMaintenancePrunesSurplus(t *testing.T) {
	// A calm dedicated cluster with a cold file: the controller's
	// target sits at the floor, so maintenance must prune a statically
	// over-replicated file down, publish consistent metadata, and
	// delete the surplus bytes.
	nn, cl := dedicatedNameNode(t, 8)
	cl.Replication = 4
	data := payload(600) // 6 blocks x 4 replicas
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}
	if err := nn.EnableDynamicRF(DynamicRFConfig{MinRF: 2, MaxRF: 5, Hysteresis: 1}); err != nil {
		t.Fatal(err)
	}
	pruned := 0
	var last ReplicationReport
	for pass := 0; pass < 6; pass++ {
		rep, err := cl.MaintainReplication(context.Background(), "f", false)
		if err != nil {
			t.Fatal(err)
		}
		pruned += rep.Pruned
		last = rep
	}
	if last.Target != 2 {
		t.Fatalf("converged target = %d, want floor 2", last.Target)
	}
	if pruned != 6*2 {
		t.Fatalf("pruned %d replicas, want 12 (6 blocks x 2 surplus)", pruned)
	}
	if got := nn.Resilience().PrunedReplicas.Load(); got != int64(pruned) {
		t.Fatalf("PrunedReplicas counter %d != report total %d", got, pruned)
	}
	fm, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	held := map[cluster.NodeID]map[BlockID]bool{}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) != 2 {
			t.Fatalf("block %d kept %d replicas, want 2", bm.ID, len(bm.Replicas))
		}
		for _, r := range bm.Replicas {
			if held[r] == nil {
				held[r] = map[BlockID]bool{}
			}
			held[r][bm.ID] = true
		}
	}
	// Surplus bytes are gone: no DataNode holds a block the metadata
	// does not list it for.
	for i := 0; i < 8; i++ {
		dn := mustDataNode(t, nn, cluster.NodeID(i))
		for _, bm := range fm.Blocks {
			if dn.Has(bm.ID) && !held[cluster.NodeID(i)][bm.ID] {
				t.Fatalf("node %d still stores pruned block %d", i, bm.ID)
			}
		}
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A stable system must not oscillate: further passes are no-ops.
	for pass := 0; pass < 4; pass++ {
		rep, err := cl.MaintainReplication(context.Background(), "f", false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pruned != 0 || rep.Repaired != 0 || rep.Target != 2 {
			t.Fatalf("post-convergence pass not a no-op: %+v", rep)
		}
	}
	// Content intact on the surviving replicas. (Read last: block
	// reads feed the popularity signal, and a freshly-read file is
	// legitimately hotter on the next pass.)
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content damaged by pruning: %v", err)
	}
}

func TestDynamicRFPruneKeepsDownHoldersAndLowIDs(t *testing.T) {
	// Down holders are never pruned (their bytes may be all that is
	// left after further failures); among live holders the cut takes
	// the surplus deterministically, keeping the lowest node ids on an
	// efficiency tie (a dedicated cluster is one big tie).
	nn, cl := dedicatedNameNode(t, 6)
	cl.Replication = 4
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(100), false); err != nil {
		t.Fatal(err)
	}
	fm, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	holders := fm.Blocks[0].Replicas
	down := holders[len(holders)-1]
	mustDataNode(t, nn, down).SetUp(false)

	if err := nn.EnableDynamicRF(DynamicRFConfig{MinRF: 2, MaxRF: 5, Hysteresis: 1}); err != nil {
		t.Fatal(err)
	}
	// Converge: 4 -> 3 -> 2 live replicas (one pass per step).
	for pass := 0; pass < 4; pass++ {
		if _, err := cl.MaintainReplication(context.Background(), "f", false); err != nil {
			t.Fatal(err)
		}
	}
	fm, err = nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	var keptDown bool
	live := []cluster.NodeID{}
	for _, r := range fm.Blocks[0].Replicas {
		if r == down {
			keptDown = true
		} else {
			live = append(live, r)
		}
	}
	if !keptDown {
		t.Fatalf("down holder %d was pruned; replicas now %v", down, fm.Blocks[0].Replicas)
	}
	if len(live) != 2 {
		t.Fatalf("live replicas = %v, want 2 survivors", live)
	}
	// The survivors are the lowest-id live holders of the original set.
	wantLive := append([]cluster.NodeID{}, holders[:len(holders)-1]...)
	for _, w := range wantLive[:2] {
		found := false
		for _, l := range live {
			if l == w {
				found = true
			}
		}
		_ = found // survivor identity asserted below via lowest-id rule
	}
	lowest := func(ids []cluster.NodeID, k int) map[cluster.NodeID]bool {
		sorted := append([]cluster.NodeID{}, ids...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		out := map[cluster.NodeID]bool{}
		for _, id := range sorted[:k] {
			out[id] = true
		}
		return out
	}
	want := lowest(wantLive, 2)
	for _, l := range live {
		if !want[l] {
			t.Fatalf("survivors %v are not the lowest-id live holders of %v", live, wantLive)
		}
	}
}

// TestDynamicRFChurnSoak runs the controller against ~10k concurrent
// events — liveness churn, reads (heat), maintenance passes — under
// -race, then verifies convergence: the target lands inside the band
// and stays put once the churn stops (no oscillation).
func TestDynamicRFChurnSoak(t *testing.T) {
	nn, cl := resilienceFixture(t, 12)
	cl.Replication = 3
	cl.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond}
	data := bytes.Repeat([]byte("dynrfsoak!"), 120) // 12 blocks
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}
	if err := nn.EnableDynamicRF(DynamicRFConfig{MinRF: 2, MaxRF: 4, Hysteresis: 2}); err != nil {
		t.Fatal(err)
	}

	const targetEvents = 10_000
	var events atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(f func(g *stats.RNG)) {
		wg.Add(1)
		g := cl.g.Split()
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f(g)
				if events.Add(1) >= targetEvents {
					stop.Store(true)
				}
			}
		}()
	}
	// Liveness churn.
	for w := 0; w < 2; w++ {
		worker(func(g *stats.RNG) {
			_ = nn.SetNodeUp(cluster.NodeID(g.IntN(12)), g.Float64() < 0.5)
		})
	}
	// Read heat.
	worker(func(*stats.RNG) {
		if _, err := cl.ReadFileContext(context.Background(), "f"); err != nil && !IsTransient(err) {
			t.Errorf("read: %v", err)
		}
	})
	// Maintenance under the dynamic target.
	mcl, err := NewClient(nn, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	mcl.Replication = cl.Replication
	mcl.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Microsecond}
	worker(func(*stats.RNG) {
		if _, err := mcl.MaintainReplication(context.Background(), "f", false); err != nil && !IsTransient(err) {
			t.Errorf("maintain: %v", err)
		}
	})
	// Target observers race the controller.
	worker(func(*stats.RNG) {
		if tgt := appliedRF(nn.dynamic.Load(), "f", cl.Replication); tgt < 2 || tgt > 4 {
			t.Errorf("target %d escaped [2, 4]", tgt)
			stop.Store(true)
		}
	})
	wg.Wait()
	if events.Load() < targetEvents {
		t.Fatalf("soak stopped after %d events", events.Load())
	}

	// Churn over: everyone rejoins; with no further reads the heat
	// decays and the target must converge and hold still.
	for i := 0; i < 12; i++ {
		if err := nn.SetNodeUp(cluster.NodeID(i), true); err != nil {
			t.Fatal(err)
		}
	}
	var prev ReplicationReport
	converged := 0
	for round := 0; converged < 4; round++ {
		rep, err := mcl.MaintainReplication(context.Background(), "f", false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Unrepairable > 0 {
			t.Fatalf("unrepairable blocks after churn stopped: %+v", rep)
		}
		if rep.Repaired == 0 && rep.Pruned == 0 && rep.Target == prev.Target && round > 0 {
			converged++
		} else {
			converged = 0
		}
		prev = rep
		if round > 60 {
			t.Fatalf("dynamic RF did not converge: %+v", rep)
		}
	}
	if prev.Target < 2 || prev.Target > 4 {
		t.Fatalf("converged target %d outside [2, 4]", prev.Target)
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost under churn: %v", err)
	}
}

// appliedRF is the controller's current target for name, read without
// advancing the controller.
func appliedRF(d *dynRF, name string, declared int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state(name, declared).applied
}
