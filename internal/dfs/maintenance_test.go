package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

func TestMaintainReplicationRepairs(t *testing.T) {
	nn, cl := testClient(t, 10, 100)
	cl.Replication = 2
	data := payload(800) // 8 blocks
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}

	// Down the first holder of block 0.
	lost := fm.Blocks[0].Replicas[0]
	dn, err := nn.DataNode(lost)
	if err != nil {
		t.Fatal(err)
	}
	dn.SetUp(false)

	report, err := cl.MaintainReplication(context.Background(), "f", true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Repaired == 0 {
		t.Fatalf("nothing repaired: %+v", report)
	}
	if report.Unrepairable != 0 {
		t.Fatalf("unexpected unrepairable blocks: %+v", report)
	}

	// Every block now has >= 2 live replicas.
	fm2, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range fm2.Blocks {
		live := 0
		for _, r := range bm.Replicas {
			d, err := nn.DataNode(r)
			if err != nil {
				t.Fatal(err)
			}
			if d.Up() {
				if !d.Has(bm.ID) {
					t.Fatalf("metadata lists node %d for block %d without the bytes", r, bm.ID)
				}
				live++
			}
		}
		if live < 2 {
			t.Fatalf("block %d has %d live replicas", bm.ID, live)
		}
	}

	// Content unchanged.
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content corrupted by repair")
	}
}

// A holder that rejoins after its block was repaired elsewhere leaves
// the block over its declared replication, and the next pass trims
// exactly the surplus. Down holders are kept (their bytes may be all
// that is left after further failures), and on a dedicated cluster, one
// big efficiency tie, the lowest node ids stay. The two tests below keep
// the names they had when a dynamic replication target drove pruning;
// the surplus now only comes from rejoined holders.

func TestDynamicRFMaintenancePrunesSurplus(t *testing.T) {
	cases := []struct {
		name    string
		holders int // original holders downed in turn, each followed by a repair pass, then rejoined
	}{
		{"one holder rejoins", 1},
		{"both holders rejoin", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkPruneRejoinedSurplus(t, tc.holders, tc.holders)
		})
	}
}

func TestDynamicRFPruneKeepsDownHoldersAndLowIDs(t *testing.T) {
	// Two holders go down; one rejoins while the other stays down.
	checkPruneRejoinedSurplus(t, 2, 1)
}

// checkPruneRejoinedSurplus writes an RF-2 one-block file on a dedicated
// 8-node cluster, downs the first downed original holders in turn with a
// repair pass after each, brings the first rejoined of them back, and
// checks the pruning pass and the pass after it.
func checkPruneRejoinedSurplus(t *testing.T, downed, rejoined int) {
	t.Helper()
	ctx := context.Background()
	c, err := cluster.New(make([]cluster.Node, 8))
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
	cl.Replication = 2
	data := payload(100) // one block
	fm, _, err := cl.CopyFromLocalReportContext(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	block := fm.Blocks[0].ID
	orig := fm.Blocks[0].Replicas
	for _, h := range orig[:downed] {
		mustDataNode(t, nn, h).SetUp(false)
		rep, err := cl.MaintainReplication(ctx, "f", false)
		if err != nil {
			t.Fatal(err)
		}
		if rep != (ReplicationReport{Repaired: 1}) {
			t.Fatalf("repair pass after downing node %d: %+v", h, rep)
		}
	}
	for _, h := range orig[:rejoined] {
		mustDataNode(t, nn, h).SetUp(true)
	}

	before, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	holders := before.Blocks[0].Replicas
	var live, down []cluster.NodeID
	for _, h := range holders {
		if mustDataNode(t, nn, h).Up() {
			live = append(live, h)
		} else {
			down = append(down, h)
		}
	}
	// The surplus is the live holders above the lowest ids;
	// everything else stays, in its original order.
	byID := slices.Clone(live)
	slices.Sort(byID)
	dropped := byID[cl.Replication:]
	if len(dropped) != rejoined {
		t.Fatalf("setup: %d live holders %v, want %d over RF %d", len(live), live, rejoined, cl.Replication)
	}
	want := slices.DeleteFunc(slices.Clone(holders), func(h cluster.NodeID) bool {
		return slices.Contains(dropped, h)
	})

	rep, err := cl.MaintainReplication(ctx, "f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (ReplicationReport{Pruned: len(dropped)}) {
		t.Fatalf("pruning pass: %+v, want %d pruned", rep, len(dropped))
	}
	after, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Blocks[0].Replicas; !slices.Equal(got, want) {
		t.Fatalf("replicas %v after pruning %v, want %v", got, holders, want)
	}
	for _, h := range down {
		if !slices.Contains(after.Blocks[0].Replicas, h) {
			t.Fatalf("down holder %d was pruned", h)
		}
	}
	for _, h := range dropped {
		if mustDataNode(t, nn, h).Has(block) {
			t.Fatalf("node %d still stores pruned block %d", h, block)
		}
	}
	if got := nn.Resilience().PrunedReplicas.Load(); got != int64(rep.Pruned) {
		t.Fatalf("PrunedReplicas counter %d != report %d", got, rep.Pruned)
	}
	if err := nn.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err = cl.MaintainReplication(ctx, "f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (ReplicationReport{Healthy: 1}) {
		t.Fatalf("pass after pruning is not a no-op: %+v", rep)
	}
	got, err := cl.ReadFileContext(ctx, "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content damaged by pruning: %v", err)
	}
}

func TestMaintainReplicationUnrepairable(t *testing.T) {
	nn, cl := testClient(t, 4, 100)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(100), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fm.Blocks[0].Replicas {
		dn, err := nn.DataNode(r)
		if err != nil {
			t.Fatal(err)
		}
		dn.SetUp(false)
	}
	report, err := cl.MaintainReplication(context.Background(), "f", false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Unrepairable != 1 {
		t.Fatalf("report = %+v, want 1 unrepairable", report)
	}
}

func TestMaintainReplicationHealthyNoop(t *testing.T) {
	nn, cl := testClient(t, 8, 100)
	cl.Replication = 2
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(400), false); err != nil {
		t.Fatal(err)
	}
	before, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	report, err := cl.MaintainReplication(context.Background(), "f", true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Repaired != 0 || report.Healthy != len(before.Blocks) {
		t.Fatalf("report = %+v", report)
	}
}

func TestMaintainReplicationMissingFile(t *testing.T) {
	_, cl := testClient(t, 4, 100)
	if _, err := cl.MaintainReplication(context.Background(), "nope", true); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMaintainReplicationAdaptPrefersReliable(t *testing.T) {
	// With ADAPT repair placement, replacement replicas should land
	// mostly on reliable nodes (the second half of the emulation
	// cluster by group assignment).
	nn, cl := testClient(t, 16, 10)
	cl.Replication = 2
	data := payload(10 * 16 * 20) // 320 blocks, 640 replicas
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}
	before, err := nn.BlockDistribution("f")
	if err != nil {
		t.Fatal(err)
	}

	// Down the first volatile node that holds blocks.
	victim := -1
	for i, n := range nn.Cluster().Nodes() {
		if n.Group >= 0 && before[i] > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no volatile holder found")
	}
	dn, err := nn.DataNode(cluster.NodeID(victim))
	if err != nil {
		t.Fatal(err)
	}
	dn.SetUp(false)

	report, err := cl.MaintainReplication(context.Background(), "f", true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Repaired < before[victim]/2 {
		t.Fatalf("repaired %d, want at least half of the victim's %d replicas",
			report.Repaired, before[victim])
	}
	after, err := nn.BlockDistribution("f")
	if err != nil {
		t.Fatal(err)
	}
	var reliableGain, volatileGain int
	for i, n := range nn.Cluster().Nodes() {
		if i == victim {
			continue
		}
		gain := after[i] - before[i]
		if n.Group < 0 {
			reliableGain += gain
		} else {
			volatileGain += gain
		}
	}
	if reliableGain <= volatileGain {
		t.Fatalf("repairs favored volatile nodes: reliable +%d, volatile +%d",
			reliableGain, volatileGain)
	}
}

// TestFileLockTableDrains: a file's structural lock occupies its
// shard's table only while it is held or awaited. Files created,
// repaired and deleted, a consistency check and a repair pass over the
// deleted names leave the table empty, and lockers of one name still
// exclude each other.
func TestFileLockTableDrains(t *testing.T) {
	nn, cl := testClient(t, 6, 100)
	cl.Replication = 2
	ctx := context.Background()
	const files = 20
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, _, err := cl.CopyFromLocalReportContext(ctx, name, payload(250), false); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.MaintainReplication(ctx, name, true); err != nil {
			t.Fatal(err)
		}
		if err := nn.DeleteContext(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := nn.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		if _, err := cl.MaintainReplication(ctx, fmt.Sprintf("f%d", i), true); !errors.Is(err, ErrFileNotFound) {
			t.Fatalf("repair of deleted f%d: err = %v, want ErrFileNotFound", i, err)
		}
	}

	var wg sync.WaitGroup
	inside := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				unlock := nn.lockFile("shared")
				if inside++; inside != 1 {
					t.Errorf("%d holders of one file lock", inside)
				}
				inside--
				unlock()
			}
		}()
	}
	wg.Wait()

	for i, sh := range nn.shards {
		sh.mu.Lock()
		left := len(sh.fileLocks)
		sh.mu.Unlock()
		if left != 0 {
			t.Errorf("shard %d keeps %d file locks nobody holds", i, left)
		}
	}
}
