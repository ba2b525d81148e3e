package svc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// testCluster boots an n-node loopback cluster with small blocks and
// replication 2, registering cleanup.
func testCluster(t *testing.T, n int, faults TransportFaults) *LocalCluster {
	t.Helper()
	nodes := make([]cluster.Node, n)
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(7), faults, NameNodeConfig{
		BlockSize:   1024,
		Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	return lc
}

func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

// TestEndToEndShellOverTCP drives the basic shell surface over real
// sockets: copyFromLocal, stat, list, read, cp, dist, delete.
func TestEndToEndShellOverTCP(t *testing.T) {
	lc := testCluster(t, 4, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	data := payload(8 * 1024) // 8 blocks at 1 KiB
	fm, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Blocks) != 8 || report.Blocks != 8 || report.MinReplication != 2 {
		t.Fatalf("write: blocks=%d report=%+v", len(fm.Blocks), report)
	}

	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}

	if _, err := cl.Stat(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat(ctx, "ghost"); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("stat ghost = %v, want ErrFileNotFound across the wire", err)
	}

	if _, _, err := cl.CopyFromLocal(ctx, "g", data, true); err != nil {
		t.Fatal(err)
	}
	files, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("list = %v, want 2 files", files)
	}

	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 16 { // 8 blocks × replication 2
		t.Fatalf("distribution %v sums to %d, want 16", counts, total)
	}

	if err := cl.Delete(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSurvivesPartitionAndAdapts is the headline e2e: write
// over TCP, partition a replica-holding DataNode with the chaos net
// hook, read through failover, heal, feed the NameNode heartbeats
// that mark two nodes flaky, and run the live adapt rebalance — the
// placement must shift toward the reliable nodes and the namespace
// must stay consistent.
func TestClusterSurvivesPartitionAndAdapts(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	lc := testCluster(t, 4, nf)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	data := payload(8 * 1024)
	if _, _, err := cl.CopyFromLocal(ctx, "f", data, false); err != nil {
		t.Fatal(err)
	}

	// Partition a node that holds replicas. Replication 2 guarantees
	// every block keeps a live copy.
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	victim := cluster.NodeID(-1)
	for id, n := range counts {
		if n > 0 {
			victim = cluster.NodeID(id)
			break
		}
	}
	if victim < 0 {
		t.Fatalf("no node holds replicas: %v", counts)
	}
	nf.Partition(endpointName(victim))

	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatalf("read during partition: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ during partition")
	}
	if cl.resilience().NodeDownErrors == 0 {
		t.Fatal("partition read succeeded without touching the client's failover path")
	}

	// Heal, then teach the predictor: nodes 0 and 1 are interrupted and
	// come back a few times, 2 and 3 only beat.
	nf.Heal(endpointName(victim))
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 2; i++ {
			if err := lc.FlushHeartbeats(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for id := cluster.NodeID(0); id < 2; id++ {
			if err := lc.SetNodeUp(id, false); err != nil {
				t.Fatal(err)
			}
			if err := lc.SetNodeUp(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}

	est, err := cl.Estimates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if est[0].Lambda == 0 || est[2].Lambda != 0 {
		t.Fatalf("estimates did not reflect heartbeats: %+v", est)
	}

	moved, err := cl.Adapt(ctx, "f")
	if err != nil {
		t.Fatalf("adapt rebalance: %v", err)
	}
	if moved == 0 {
		t.Fatal("adapt moved no replicas despite skewed availability")
	}

	after, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	flaky, reliable := after[0]+after[1], after[2]+after[3]
	if reliable <= flaky {
		t.Fatalf("adapt did not skew toward reliable nodes: flaky=%d reliable=%d (%v)", flaky, reliable, after)
	}

	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatalf("consistency after adapt: %v", err)
	}
	got, err = cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ after adapt")
	}
}

// TestDeadlinePropagatesOverWire: a client deadline too short for the
// work must surface context.DeadlineExceeded through the wire
// taxonomy, not hang.
func TestDeadlinePropagatesOverWire(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	lc := testCluster(t, 3, nf)
	cl := lc.Client("shell")
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := cl.CopyFromLocal(ctx, "f", payload(2048), false); err != nil {
		t.Fatal(err)
	}

	// Partition every DataNode so the read path can only retry, then
	// give it a deadline far shorter than the backoff schedule.
	for id := cluster.NodeID(0); id < 3; id++ {
		nf.Partition(endpointName(id))
	}
	short, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	_, err = cl.ReadFile(short, "f")
	if err == nil {
		t.Fatal("read with all datanodes partitioned succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !dfs.IsTransient(err) {
		t.Fatalf("err = %v, want deadline or transient classification", err)
	}
	for id := cluster.NodeID(0); id < 3; id++ {
		nf.Heal(endpointName(id))
	}
}
