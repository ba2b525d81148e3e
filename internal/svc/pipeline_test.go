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

// pipelineCluster boots an n-node cluster on the binary data path with
// the given block size and replication.
func pipelineCluster(t *testing.T, n int, blockSize int64, replication int, faults TransportFaults) *LocalCluster {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(7), faults, NameNodeConfig{
		BlockSize:   blockSize,
		Replication: replication,
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

// TestPipelineThreeDeepChain writes at replication 3, so every block
// crosses a client -> DN1 -> DN2 -> DN3 relay chain, and reads back.
func TestPipelineThreeDeepChain(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 3, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	data := payload(6 * 1024)
	fm, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinReplication != 3 || report.DegradedBlocks != 0 {
		t.Fatalf("report = %+v, want full replication 3", report)
	}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas: %v", bm.ID, len(bm.Replicas), bm.Replicas)
		}
	}

	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}
	// Every replica of every block must hold the true bytes — the
	// relay path stored them, not just the head of the chain.
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMultiChunkBlocks uses blocks larger than the chunk size,
// so one block crosses the pipeline as several frames each way.
func TestPipelineMultiChunkBlocks(t *testing.T) {
	lc := pipelineCluster(t, 3, 1<<20, 2, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	data := payload(2<<20 + 12345) // 3 blocks, ~4 chunks each
	if _, report, err := cl.CopyFromLocal(ctx, "big", data, false); err != nil {
		t.Fatal(err)
	} else if report.MinReplication != 2 {
		t.Fatalf("report = %+v", report)
	}
	got, err := cl.ReadFile(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-chunk read differs from written")
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineFailsOverDeadChainNode: a chain node whose storage is
// down must not sink the write — the commit ack reports it failed with
// the node-down taxonomy, and the engine diverts that replica to an
// alternate live node, exactly as the fan-out path would.
func TestPipelineFailsOverDeadChainNode(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 3, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	victim := cluster.NodeID(1)
	if err := lc.SetNodeUp(victim, false); err != nil {
		t.Fatal(err)
	}

	data := payload(4 * 1024)
	_, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinReplication != 3 {
		t.Fatalf("report = %+v, want failover to keep replication 3", report)
	}
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if counts[victim] != 0 {
		t.Fatalf("dead node holds %d replicas: %v", counts[victim], counts)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 12 { // 4 blocks x replication 3 on the 3 live nodes
		t.Fatalf("distribution %v sums to %d, want 12", counts, total)
	}
	if cl.resilience().NodeDownErrors == 0 {
		t.Fatal("dead chain node produced no NodeDownErrors")
	}

	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}
}

// TestPipelineUnreachableChainNode partitions the middle of the chain
// at the transport layer: the relay cannot dial it, the setup ack
// reports it down, and the write diverts to the live spare.
func TestPipelineUnreachableChainNode(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	lc := pipelineCluster(t, 4, 1024, 3, nf)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	victim := cluster.NodeID(2)
	nf.Partition(endpointName(victim))

	data := payload(3 * 1024)
	_, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinReplication != 3 {
		t.Fatalf("report = %+v, want failover to keep replication 3", report)
	}
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if counts[victim] != 0 {
		t.Fatalf("partitioned node holds %d replicas: %v", counts[victim], counts)
	}
	nf.Heal(endpointName(victim))
	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}
}

// TestScrubOrphansRemovesUnreferencedReplicas plants a replica no file
// references — the residue a torn pipeline leaves when its cleanup
// cannot reach a holder — and asserts the scrubber removes exactly it:
// live blocks and blocks minted after the scan's high-water mark stay.
func TestScrubOrphansRemovesUnreferencedReplicas(t *testing.T) {
	lc := pipelineCluster(t, 3, 1024, 2, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// Mint real block ids 0..3, then orphan them by deleting the file.
	if _, _, err := cl.CopyFromLocal(ctx, "doomed", payload(4*1024), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.CopyFromLocal(ctx, "keeper", payload(2*1024), false); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}

	// Plant the torn-write residue by hand: a deleted block's id on a
	// node, below the high-water mark, referenced by nothing.
	dn0 := lc.DNs[0].Node()
	if err := dn0.Put(dfs.BlockID(2), []byte("orphan bytes")); err != nil {
		t.Fatal(err)
	}
	// And one above the high-water mark: an in-flight create's block
	// the scrubber must leave alone.
	const futureID = dfs.BlockID(1 << 40)
	if err := dn0.Put(futureID, []byte("in-flight bytes")); err != nil {
		t.Fatal(err)
	}

	removed, err := cl.ScrubOrphans(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("scrub removed %d replicas, want exactly the planted orphan", removed)
	}
	left := dn0.StoredBlocks()
	for _, id := range left {
		if id == dfs.BlockID(2) {
			t.Fatal("orphan survived the scrub")
		}
	}
	found := false
	for _, id := range left {
		if id == futureID {
			found = true
		}
	}
	if !found {
		t.Fatal("scrub deleted a block above the high-water mark")
	}
	dn0.Delete(futureID)

	// The keeper file is untouched and the namespace consistent.
	if _, err := cl.ReadFile(ctx, "keeper"); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	// A second pass finds nothing.
	if removed, err := cl.ScrubOrphans(ctx); err != nil || removed != 0 {
		t.Fatalf("second scrub: removed %d, err %v", removed, err)
	}
}

// TestStreamGetCancelledContext: a dead context must abort the stream
// dial instead of hanging.
func TestStreamGetCancelledContext(t *testing.T) {
	lc := pipelineCluster(t, 2, 1024, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := streamGet(ctx, "test", nil, lc.DNs[0].Addr(), endpointName(0), 0)
	if err == nil {
		t.Fatal("cancelled stream get succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
