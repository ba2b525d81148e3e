package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
)

// The failure windows of the client-direct data path. A put is three
// steps with the client in the middle, so a client or a NameNode can
// die between any two of them; each test below opens one window and
// checks what cleans it: the client's own unwind, the allocation
// lease, or the NameNode's repair scan once the lease is out.

// replicasOf counts, per DataNode ground truth, the stored replicas of
// the allocation's block ids.
func replicasOf(lc *LocalCluster, a *dfs.Allocation) int {
	n := 0
	for _, ab := range a.Blocks {
		for _, dn := range lc.DNs {
			if dn.Node().Has(ab.ID) {
				n++
			}
		}
	}
	return n
}

// storedReplicas counts every replica any DataNode stores.
func storedReplicas(lc *LocalCluster) int {
	n := 0
	for _, dn := range lc.DNs {
		n += len(dn.Node().StoredBlocks())
	}
	return n
}

// mustAllocate runs nn.allocate on the client's own data path.
func mustAllocate(t *testing.T, ctx context.Context, cl *Client, name string, size int) (*dataPath, *dfs.Allocation) {
	t.Helper()
	dp, err := cl.dataPathFor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cl.allocate(ctx, dp, name, int64(size), false)
	if err != nil {
		t.Fatal(err)
	}
	return dp, a
}

// TestVanishedClientIsScrubbedAfterItsLease: a client streams its
// blocks and is then cut off for good. While its lease lives a repair
// scan leaves the replicas alone (the complete could still come); once
// it is out, one scan removes exactly them and nothing a file
// references.
func TestVanishedClientIsScrubbedAfterItsLease(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	lc := pipelineCluster(t, 4, 1024, 2, nf)
	keeper := lc.Client("shell")
	defer keeper.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	kept := payload(3 * 1024)
	if _, _, err := keeper.CopyFromLocal(ctx, "kept", kept, false); err != nil {
		t.Fatal(err)
	}

	ghost := lc.Client("ghost")
	defer ghost.Close()
	lease, cancelLease := context.WithTimeout(ctx, 400*time.Millisecond)
	defer cancelLease()
	dp, a := mustAllocate(t, lease, ghost, "never-completed", 4*1024)
	var report dfs.WriteReport
	blocks, err := dp.io.WriteBlocks(lease, a, bytes.NewReader(payload(4*1024)), clientRetry, &report)
	if err != nil {
		t.Fatal(err)
	}
	nf.Partition("ghost") // every byte streamed; gone before the complete
	if _, err := ghost.complete(lease, "never-completed", blocks, report); err == nil {
		t.Fatal("a partitioned client completed its put")
	}
	written := replicasOf(lc, a)
	if written != 4*2 {
		t.Fatalf("streamed %d replicas, want 8", written)
	}

	lc.NN.RepairScan()
	if left := replicasOf(lc, a); left != written {
		t.Fatalf("a repair scan under a live lease left %d of the %d streamed replicas", left, written)
	}
	<-lease.Done() // the lease was the allocate call's budget
	lc.NN.RepairScan()
	if left := replicasOf(lc, a); left != 0 {
		t.Fatalf("%d abandoned replicas survived the repair scan", left)
	}
	if n := storedReplicas(lc); n != 3*2 {
		t.Fatalf("%d replicas stored after the repair scan, want the 6 of the referenced file", n)
	}
	if got, err := keeper.ReadFile(ctx, "kept"); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("referenced file after scrub: %v", err)
	}
	if err := keeper.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := keeper.Stat(ctx, "never-completed"); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("abandoned put is visible: %v", err)
	}
}

// TestNameNodeCrashBetweenAllocateAndComplete: the NameNode dies with
// a put's bytes on the DataNodes and its complete not yet sent. The
// restarted NameNode has forgotten the lease: the old complete is
// refused with the typed transient code, the put is simply done again,
// every acknowledged file reads back, and the scrubber collects what
// the first attempt left.
func TestNameNodeCrashBetweenAllocateAndComplete(t *testing.T) {
	cfg := NameNodeConfig{BlockSize: 512, Replication: 2, WALDir: t.TempDir()}
	lc := bootDurable(t, 4, 61, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := lc.Client("shell")
	defer cl.Close()
	acked := durablePayload(1, 1500)
	if _, _, err := cl.CopyFromLocal(ctx, "acked", acked, false); err != nil {
		t.Fatal(err)
	}

	torn := durablePayload(2, 2000)
	dp, a := mustAllocate(t, ctx, cl, "torn", len(torn))
	var report dfs.WriteReport
	blocks, err := dp.io.WriteBlocks(ctx, a, bytes.NewReader(torn), clientRetry, &report)
	if err != nil {
		t.Fatal(err)
	}
	lc.CrashNameNode()
	if _, err := cl.complete(ctx, "torn", blocks, report); err == nil {
		t.Fatal("complete reached a crashed namenode")
	}
	if err := lc.RestartNameNode(restartCluster(t, 4), stats.NewRNG(62), cfg); err != nil {
		t.Fatal(err)
	}

	cl2 := lc.Client("shell")
	defer cl2.Close()
	_, err = cl2.complete(ctx, "torn", blocks, report)
	if !errors.Is(err, dfs.ErrLeaseExpired) || !dfs.IsTransient(err) {
		t.Fatalf("complete of a forgotten lease: err = %v, want transient ErrLeaseExpired", err)
	}
	if _, _, err := cl2.CopyFromLocal(ctx, "torn", torn, false); err != nil {
		t.Fatalf("put retried after the restart: %v", err)
	}
	for name, want := range map[string][]byte{"acked": acked, "torn": torn} {
		got, err := cl2.ReadFile(ctx, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q after restart: %v", name, err)
		}
	}
	if _, err := lc.Engine().ScrubOrphans(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl2.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	requireNoOrphanBlocks(t, ctx, cl2, lc)
}

// TestTwoWritersStraddleNameNodeCrash: the NameNode dies with two puts
// in flight, each holding leased block ids no journal record mentions.
// The restarted NameNode must not hand those ids out again. The writer
// that retries first is acknowledged under ids of its own; the other
// then streams its late blocks under the old ids, has its complete
// refused, and — no longer able to prove the ids are its own — deletes
// nothing. The acknowledged file keeps every replica, the second put
// succeeds on its retry, and the scrubber collects both first attempts.
func TestTwoWritersStraddleNameNodeCrash(t *testing.T) {
	cfg := NameNodeConfig{BlockSize: 512, Replication: 3, WALDir: t.TempDir()}
	lc := bootDurable(t, 6, 63, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	early, late := lc.Client("shell-a"), lc.Client("shell-b")
	defer early.Close()
	defer late.Close()
	if _, _, err := early.CopyFromLocal(ctx, "before", durablePayload(0, 700), false); err != nil {
		t.Fatal(err)
	}

	lateData, earlyData := durablePayload(1, 2000), durablePayload(2, 2000)
	lateDP, lateAlloc := mustAllocate(t, ctx, late, "late", len(lateData))
	earlyDP, earlyAlloc := mustAllocate(t, ctx, early, "early", len(earlyData))
	var report dfs.WriteReport
	if _, err := earlyDP.io.WriteBlocks(ctx, earlyAlloc, bytes.NewReader(earlyData), clientRetry, &report); err != nil {
		t.Fatal(err)
	}
	lc.CrashNameNode()
	if err := lc.RestartNameNode(restartCluster(t, 6), stats.NewRNG(64), cfg); err != nil {
		t.Fatal(err)
	}

	// The early writer starts over and is acknowledged.
	early2 := lc.Client("shell-a")
	defer early2.Close()
	fm, _, err := early2.CopyFromLocal(ctx, "early", earlyData, false)
	if err != nil {
		t.Fatalf("put retried after the restart: %v", err)
	}
	forgotten := append(append([]dfs.AllocatedBlock(nil), lateAlloc.Blocks...), earlyAlloc.Blocks...)
	for _, bm := range fm.Blocks {
		for _, old := range forgotten {
			if bm.ID == old.ID {
				t.Fatalf("block id %d, leased before the crash, was handed out again", bm.ID)
			}
		}
	}

	// The late writer never noticed: it streams under the ids it was
	// given and reports to whoever answers as the NameNode now.
	late2 := lc.Client("shell-b")
	defer late2.Close()
	if _, _, err := late2.store(ctx, lateDP, lateAlloc, lateData); !errors.Is(err, dfs.ErrLeaseExpired) {
		t.Fatalf("complete of a forgotten lease: err = %v, want ErrLeaseExpired", err)
	}
	if left := replicasOf(lc, lateAlloc); left != len(lateAlloc.Blocks)*3 {
		t.Fatalf("a refused writer holds %d replicas, want all %d left for the scrubber", left, len(lateAlloc.Blocks)*3)
	}
	if err := early2.CheckConsistency(ctx); err != nil {
		t.Fatalf("acknowledged file after the other writer's refusal: %v", err)
	}
	if got, err := early2.ReadFile(ctx, "early"); err != nil || !bytes.Equal(got, earlyData) {
		t.Fatalf("acknowledged file after the other writer's refusal: %v", err)
	}
	for _, bm := range fm.Blocks {
		for _, r := range bm.Replicas {
			if !lc.DNs[r].Node().Has(bm.ID) {
				t.Fatalf("acknowledged block %d lost its replica on node %d", bm.ID, r)
			}
		}
	}

	if _, _, err := late2.CopyFromLocal(ctx, "late", lateData, false); err != nil {
		t.Fatalf("second writer's retry: %v", err)
	}
	if n, err := lc.Engine().ScrubOrphans(ctx); err != nil || n != len(forgotten)*3 {
		t.Fatalf("scrub removed %d (err %v), want the %d replicas of the two first attempts", n, err, len(forgotten)*3)
	}
	for name, want := range map[string][]byte{"before": durablePayload(0, 700), "early": earlyData, "late": lateData} {
		if got, err := late2.ReadFile(ctx, name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q after the scrub: %v", name, err)
		}
	}
	if err := late2.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	requireNoOrphanBlocks(t, ctx, late2, lc)
}

// jumpOnce is a lease clock that reads one hour ahead exactly once
// after arm is set: the lease checked at that moment has expired, the
// next one has not.
type jumpOnce struct{ arm atomic.Bool }

func (j *jumpOnce) now() time.Time {
	if j.arm.CompareAndSwap(true, false) {
		return time.Now().Add(time.Hour)
	}
	return time.Now()
}

// armOnData arms the clock the first time the named client sends
// anything to a DataNode: between its allocate and its complete.
type armOnData struct {
	from  string
	clock *jumpOnce
	once  sync.Once
}

func (a *armOnData) FailMessage(from, to string) error {
	if from == a.from && to != "namenode" {
		a.once.Do(func() { a.clock.arm.Store(true) })
	}
	return nil
}

func (a *armOnData) MessageDelay(from, to string) time.Duration { return 0 }

// TestPutStartsOverWhenItsLeaseRunsOut: a complete refused for an
// expired lease makes CopyFromLocal run the whole put again under a
// fresh allocation — new block ids, one published file — and what it
// streamed under the lease it lost is the scrubber's to remove.
func TestPutStartsOverWhenItsLeaseRunsOut(t *testing.T) {
	clock := &jumpOnce{}
	lc := pipelineCluster(t, 4, 1024, 2, &armOnData{from: "shell", clock: clock})
	setClock(lc, clock.now)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	data := payload(3 * 1024)
	fm, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatalf("put across an expired lease: %v", err)
	}
	if fm.Blocks[0].ID != 3 || report.MinReplication != 2 {
		t.Fatalf("first block id %d (want 3: ids 0..2 went to the expired allocation), report %+v", fm.Blocks[0].ID, report)
	}
	if n, err := lc.Engine().ScrubOrphans(ctx); err != nil || n != 3*2 {
		t.Fatalf("scrub removed %d (err %v), want the 6 replicas of the expired allocation", n, err)
	}
	for id := dfs.BlockID(0); id < 3; id++ {
		for i, dn := range lc.DNs {
			if dn.Node().Has(id) {
				t.Errorf("node %d still stores block %d of the expired allocation", i, id)
			}
		}
	}
	if got, err := cl.ReadFile(ctx, "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRacedNameHasOneWinner: two clients are both told to go ahead
// with the same name and both stream their blocks. The first complete
// publishes; the second is ErrFileExists, and the loser takes its
// replicas back.
func TestRacedNameHasOneWinner(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	first, second := lc.Client("shell-a"), lc.Client("shell-b")
	defer first.Close()
	defer second.Close()

	dpA, a := mustAllocate(t, ctx, first, "contested", 2*1024)
	dpB, b := mustAllocate(t, ctx, second, "contested", 3*1024)
	winner := payload(2 * 1024)
	if _, _, err := first.store(ctx, dpA, a, winner); err != nil {
		t.Fatal(err)
	}
	if _, _, err := second.store(ctx, dpB, b, payload(3*1024)); !errors.Is(err, dfs.ErrFileExists) {
		t.Fatalf("losing complete: err = %v, want ErrFileExists", err)
	}
	if left := replicasOf(lc, b); left != 0 {
		t.Fatalf("the loser left %d replicas behind", left)
	}
	if got, err := second.ReadFile(ctx, "contested"); err != nil || !bytes.Equal(got, winner) {
		t.Fatalf("contested file is not the winner's: %v", err)
	}
	if n, err := lc.Engine().ScrubOrphans(ctx); err != nil || n != 0 {
		t.Fatalf("scrub found %d orphans after the race (err %v)", n, err)
	}
	if err := first.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQuotaRefusedAtComplete: two creates of a one-file tenant both
// pass the fail-fast check at allocate; the authoritative reservation
// at complete refuses the second, whose replicas go and whose
// reservation does not leak — the tenant can use its one file again as
// soon as the first is deleted.
func TestQuotaRefusedAtComplete(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(7), nil, NameNodeConfig{
		BlockSize: 1024, Replication: 2,
		TenantQuotas: map[string]shard.Quota{"solo": {MaxFiles: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	cl := lc.Client("shell")
	defer cl.Close()

	one, two := shard.Prefix("solo", "one"), shard.Prefix("solo", "two")
	dp, a := mustAllocate(t, ctx, cl, one, 2*1024)
	_, b := mustAllocate(t, ctx, cl, two, 2*1024)
	if _, _, err := cl.store(ctx, dp, a, payload(2*1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.store(ctx, dp, b, payload(2*1024)); !errors.Is(err, shard.ErrQuota) {
		t.Fatalf("second create: err = %v, want ErrQuota across the wire", err)
	}
	if left := replicasOf(lc, b); left != 0 {
		t.Fatalf("the refused create left %d replicas behind", left)
	}
	var u shard.Usage
	for _, tu := range lc.Engine().Quotas().Snapshot() {
		if tu.Tenant == "solo" {
			u = tu.Usage
		}
	}
	if u.Files != 1 || u.Bytes != 2*1024 {
		t.Fatalf("usage after the refusal = %+v, want the one published file", u)
	}
	if err := cl.Delete(ctx, one); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.CopyFromLocal(ctx, two, payload(2*1024), false); err != nil {
		t.Fatalf("create after the delete: %v (a leaked reservation would refuse it)", err)
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// cutPair severs one client from one DataNode, both directions, and
// nothing else: the NameNode keeps hearing that node's heartbeats and
// keeps naming it as up.
type cutPair struct {
	client, node string
	cut          atomic.Bool
}

func (p *cutPair) FailMessage(from, to string) error {
	if p.cut.Load() && ((from == p.client && to == p.node) || (from == p.node && to == p.client)) {
		return fmt.Errorf("test: %s cannot reach %s", from, to)
	}
	return nil
}

func (p *cutPair) MessageDelay(from, to string) time.Duration { return 0 }

// countGets counts the reads that reach one DataNode's storage.
type countGets struct{ n atomic.Int64 }

func (c *countGets) FailOp(_ cluster.NodeID, op dfs.Op, _ dfs.BlockID) error {
	if op == dfs.OpGet {
		c.n.Add(1)
	}
	return nil
}

func (c *countGets) CorruptRead(_ cluster.NodeID, _ dfs.BlockID, data []byte) []byte { return data }

// TestClientProxyRevivedByNameNodeBelief: a client proxy marked down
// by a transport error has no heartbeat of its own. The read that hits
// the cut fails over; after the heal, the next locate reply names the
// node as up and the same client reads from it again.
func TestClientProxyRevivedByNameNodeBelief(t *testing.T) {
	cut := &cutPair{client: "shell"}
	lc := pipelineCluster(t, 4, 1024, 2, cut)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	data := payload(1024) // one block, two replicas
	fm, _, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	primary := fm.Blocks[0].Replicas[0]
	reads := &countGets{}
	lc.DNs[primary].Node().SetFaults(reads)
	cut.node = endpointName(primary)

	cut.cut.Store(true)
	if got, err := cl.ReadFile(ctx, "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read across the cut: %v", err)
	}
	during := cl.resilience()
	if during.ReadFailovers == 0 || during.NodeDownErrors == 0 || reads.n.Load() != 0 {
		t.Fatalf("the cut read did not fail over: %+v, %d reads reached the primary", during, reads.n.Load())
	}
	if cl.data.stores[primary].Up() {
		t.Fatal("the proxy of an unreachable node is still believed up")
	}

	cut.cut.Store(false)
	if got, err := cl.ReadFile(ctx, "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the heal: %v", err)
	}
	after := cl.resilience()
	if reads.n.Load() != 1 || after.ReadFailovers != during.ReadFailovers {
		t.Fatalf("the healed node was not used again: %d reads reached it, failovers %d -> %d",
			reads.n.Load(), during.ReadFailovers, after.ReadFailovers)
	}
}

// saturate fills a DataNode's admission budget — its one slot and its
// one queue place — until the returned func is called, so every put and
// get stream that arrives meanwhile is shed on the spot.
func saturate(t *testing.T, dn *DataNodeServer) (drain func()) {
	t.Helper()
	dn.SetAdmission(AdmissionConfig{MaxInflight: 1, Queue: 1})
	adm := dn.Admission()
	release, err := adm.acquire(context.Background(), classPut)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, giveUp := context.WithCancel(context.Background())
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if rel, err := adm.acquire(waitCtx, classPut); err == nil {
			rel()
		}
	}()
	for {
		adm.mu.Lock()
		n := adm.queued
		adm.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		giveUp()
		<-queued
		release()
	}
}

// TestDataNodeShedReachesTheClientAsOverload: the DataNodes' admission
// gates are the ones that meter bytes now, so their refusal has to reach
// the caller as what it is. With every DataNode saturated a put and a
// get fail at once with dfs.ErrOverload — not ErrNoLiveNodes or
// ErrNoReplica, which would read as an outage — leave nothing behind,
// and succeed as soon as the load drains.
func TestDataNodeShedReachesTheClientAsOverload(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 2, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	data := payload(3 * 1024)
	if _, _, err := cl.CopyFromLocal(ctx, "kept", data, false); err != nil {
		t.Fatal(err)
	}

	drains := make([]func(), len(lc.DNs))
	for i, dn := range lc.DNs {
		drains[i] = saturate(t, dn)
	}
	start := time.Now()
	_, _, perr := cl.CopyFromLocal(ctx, "shed", data, false)
	_, gerr := cl.ReadFile(ctx, "kept")
	took := time.Since(start)
	for _, drain := range drains {
		drain()
	}
	for what, err := range map[string]error{"put": perr, "get": gerr} {
		if !errors.Is(err, dfs.ErrOverload) || !dfs.IsTransient(err) ||
			errors.Is(err, dfs.ErrNoLiveNodes) || errors.Is(err, dfs.ErrNoReplica) {
			t.Errorf("%s against saturated datanodes: err = %v, want a bare transient ErrOverload", what, err)
		}
	}
	if took > time.Second {
		t.Errorf("the two sheds took %v: a shed is answered, not waited out", took)
	}
	if r := cl.resilience(); r.WriteRetries != 0 || r.ReadRetries != 0 {
		t.Errorf("the client retried into the overload: %+v", r)
	}

	if _, _, err := cl.CopyFromLocal(ctx, "shed", data, false); err != nil {
		t.Fatalf("put after the load drained: %v", err)
	}
	for _, name := range []string{"kept", "shed"} {
		if got, err := cl.ReadFile(ctx, name); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%q after the load drained: %v", name, err)
		}
	}
	if n, err := lc.Engine().ScrubOrphans(ctx); err != nil || n != 0 {
		t.Fatalf("the shed put left %d replicas behind (err %v)", n, err)
	}
}

// TestAllocateRefusesAbsurdSizes: the size in nn.allocate is the
// caller's word. One that overflows the block count, or implies more
// placements than a control frame could carry back, is refused with the
// typed permanent error, and the NameNode is still there afterwards.
func TestAllocateRefusesAbsurdSizes(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 2, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, size := range []int64{math.MaxInt64, 1 << 55} {
		var res allocateResult
		err := cl.call(ctx, "nn.allocate", allocateParams{Name: "absurd", Size: size}, &res)
		if !errors.Is(err, dfs.ErrFileTooLarge) || dfs.IsTransient(err) {
			t.Errorf("nn.allocate of %d bytes: err = %v, want permanent ErrFileTooLarge", size, err)
		}
	}
	data := payload(2 * 1024)
	if _, _, err := cl.CopyFromLocal(ctx, "sane", data, false); err != nil {
		t.Fatalf("put after the refusals: %v", err)
	}
	if fm, err := cl.Stat(ctx, "sane"); err != nil || fm.Blocks[0].ID != 0 {
		t.Fatalf("the refused allocations burned block ids: first id %d, err %v", fm.Blocks[0].ID, err)
	}
}

// TestCompleteLostAfterPublishKeepsTheFile: the NameNode publishes a
// file and drops the connection before its nn.complete reply leaves.
// The client's redial sends the call again, and the NameNode refuses the
// repeat — the lease went with the publish — so the put returns an
// error. Nothing is deleted on that refusal: every replica stays, and
// the file reads back byte for byte.
func TestCompleteLostAfterPublishKeepsTheFile(t *testing.T) {
	lc := pipelineCluster(t, 3, 1024, 2, nil)
	srv := lc.NN.srv
	var dropped atomic.Bool
	// Nothing has connected to the NameNode yet, and a connection's
	// serving goroutine starts only after acceptLoop takes this lock.
	srv.mu.Lock()
	complete := srv.methods["nn.complete"]
	srv.methods["nn.complete"] = rpcMethod{class: complete.class, serve: func(ctx context.Context, params []byte) (wireValue, error) {
		res, err := complete.serve(ctx, params)
		if err == nil && dropped.CompareAndSwap(false, true) {
			srv.closeServed() // published, and the reply has nowhere to go
		}
		return res, err
	}}
	srv.mu.Unlock()

	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	data := payload(5000)
	_, _, err := cl.CopyFromLocal(ctx, "f", data, true)
	if !dropped.Load() {
		t.Fatal("nn.complete never published the file")
	}
	// The repeat gets ErrLeaseExpired, on which the client starts over,
	// and its fresh allocation finds the file published.
	if !errors.Is(err, dfs.ErrFileExists) {
		t.Fatalf("put whose nn.complete reply was lost = %v, want the retry's ErrFileExists", err)
	}
	fm, serr := cl.Stat(ctx, "f")
	if serr != nil {
		t.Fatalf("stat after the lost reply (put said %v): %v", err, serr)
	}
	for _, bm := range fm.Blocks {
		for _, n := range bm.Replicas {
			if _, _, ok := lc.DNs[n].Node().StoredSum(bm.ID); !ok {
				t.Fatalf("block %d's replica on node %d was deleted after the put failed with %v", bm.ID, n, err)
			}
		}
	}
	if got, err := cl.ReadFile(ctx, "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after the lost reply: %v", err)
	}
}
