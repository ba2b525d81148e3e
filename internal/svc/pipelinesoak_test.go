package svc

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestPipelineChaosSoak is the v2 durability soak: three-deep
// replication chains written while a chaos goroutine partitions
// endpoints, injects drops and latency, and crashes DataNode storage
// mid-pipeline. The contract afterwards:
//
//   - zero acked writes lost — every CopyFromLocal that returned
//     success reads back byte-identical once the cluster heals;
//   - no orphan blocks — after one scrub pass, every stored replica is
//     referenced by a file and a second scrub finds nothing;
//   - the run is -race clean (writers and the chaos injector hammer
//     the pipeline concurrently).
func TestPipelineChaosSoak(t *testing.T) {
	const nodes = 5
	nf, err := chaos.NewNetFaults(stats.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(make([]cluster.Node, nodes))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(42), nf, NameNodeConfig{
		BlockSize:   1024,
		Replication: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	cl := lc.Client("shell")
	defer cl.Close()

	// Background chaos: rotate a transport partition and a storage
	// crash across the DataNodes while writes are in flight, with a
	// low ambient drop probability and a few milliseconds of jitter on
	// every message.
	lat, err := stats.NewUniform(0.0005, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	nf.SetDropProb(0.03)
	nf.SetLatency(lat, 10*time.Millisecond)

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		g := stats.NewRNG(43)
		partitioned := cluster.NodeID(-1)
		crashed := cluster.NodeID(-1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				if partitioned >= 0 {
					nf.Heal(endpointName(partitioned))
				}
				if crashed >= 0 {
					_ = lc.SetNodeUp(crashed, true)
				}
				return
			case <-time.After(5 * time.Millisecond):
			}
			// At most one node partitioned and one crashed at a time:
			// replication 3 over 5 nodes keeps every write a quorum.
			if partitioned >= 0 {
				nf.Heal(endpointName(partitioned))
				partitioned = -1
			} else {
				partitioned = cluster.NodeID(g.IntN(nodes))
				nf.Partition(endpointName(partitioned))
			}
			if i%3 == 0 {
				if crashed >= 0 {
					_ = lc.SetNodeUp(crashed, true)
					crashed = -1
				} else {
					crashed = cluster.NodeID(g.IntN(nodes))
					_ = lc.SetNodeUp(crashed, false)
				}
			}
		}
	}()

	// Writer: every successful copy is recorded with its bytes; names
	// are never reused, so a response lost to a drop cannot collide
	// with a later attempt.
	const writes = 30
	acked := make(map[string][]byte, writes)
	var lastLease time.Time // when the last put's allocation lease runs out
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("soak-%d", i)
		data := payload(3*1024 + i)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		lastLease, _ = ctx.Deadline()
		_, _, err := cl.CopyFromLocal(ctx, name, data, false)
		cancel()
		if err == nil {
			acked[name] = data
		}
	}
	close(stop)
	chaosWG.Wait()

	// Heal the world.
	nf.SetDropProb(0)
	nf.SetLatency(nil, 0)
	for id := cluster.NodeID(0); int(id) < nodes; id++ {
		nf.Heal(endpointName(id))
		if err := lc.SetNodeUp(id, true); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Heartbeats restore the NameNode's liveness belief for nodes it
	// marked down when their RPCs failed mid-chaos.
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	if len(acked) == 0 {
		t.Fatal("chaos ate every write: soak proved nothing")
	}
	t.Logf("soak: %d/%d writes acked under chaos", len(acked), writes)

	// Zero acked writes lost.
	for name, want := range acked {
		got, err := cl.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("acked write %q lost: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked write %q corrupted: %d vs %d bytes", name, len(got), len(want))
		}
	}

	// No orphans: one scrub removes torn-write residue, then every
	// replica still stored is referenced by a file and a second pass
	// finds nothing. A put whose complete was lost on the wire keeps
	// its replicas leased — shielded from the scrubber — for what was
	// left of its 2 s budget, so the scrub waits the last lease out.
	time.Sleep(time.Until(lastLease))
	removed, err := lc.Engine().ScrubOrphans(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: scrub removed %d orphan replicas", removed)
	requireNoOrphanBlocks(t, ctx, cl, lc)
	if again, err := lc.Engine().ScrubOrphans(ctx); err != nil || again != 0 {
		t.Fatalf("second scrub: removed %d, err %v", again, err)
	}

	// The namespace itself must be healthy: every live replica's bits
	// verify, and fsck sees no block without a live replica.
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	health, err := cl.Fsck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Unavailable != 0 {
		t.Fatalf("fsck: %d blocks without a live replica: %+v", health.Unavailable, health)
	}
}

// requireNoOrphanBlocks asserts that every block any DataNode stores
// is referenced by some file.
func requireNoOrphanBlocks(t *testing.T, ctx context.Context, cl *Client, lc *LocalCluster) {
	t.Helper()
	referenced := make(map[dfs.BlockID]bool)
	files, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		fm, err := cl.Stat(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bm := range fm.Blocks {
			referenced[bm.ID] = true
		}
	}
	for i, dn := range lc.DNs {
		for _, id := range dn.Node().StoredBlocks() {
			if !referenced[id] {
				t.Errorf("node %d stores orphan block %d after scrub", i, id)
			}
		}
	}
}
