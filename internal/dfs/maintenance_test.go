package dfs

import (
	"bytes"
	"context"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
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
