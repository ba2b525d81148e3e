package svc

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestCrashRecoverySoak is the PR's headline: a durable NameNode runs
// a mixed create/delete workload while seeded M/G/1 churn flips the
// DataNodes, is SIGKILL'd mid-workload, restarts from its WAL on a
// fresh port, and must then prove three things without operator help:
//
//  1. No acknowledged write is lost — every file acked before or
//     after the crash reads back byte-for-byte, deletes stay deleted.
//  2. Recovery is bit-deterministic — the restarted namespace hashes
//     to the pre-crash fingerprint, and two independent replays of
//     the directory agree.
//  3. Re-replication is autonomous — after the failure detector
//     declares a replica-holding node dead, one repair scan returns
//     the namespace to full replication on the survivors.
func TestCrashRecoverySoak(t *testing.T) {
	dir := t.TempDir()
	const nodes = 5
	cfg := NameNodeConfig{BlockSize: 512, Replication: 2, WALDir: dir, snapshotEvery: 8}

	// Ground truth drives the churn generator; the served cluster is
	// availability-stripped, so liveness and (λ, μ) knowledge reach
	// the NameNode only through heartbeats.
	truth, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes:            nodes,
		InterruptedRatio: 0.4,
	}, stats.NewRNG(71))
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := cluster.New(make([]cluster.Node, nodes))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(stripped, stats.NewRNG(72), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	eng, err := chaos.New(chaos.Config{Cluster: truth, Target: lc}, stats.NewRNG(73))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// acked tracks exactly what the NameNode acknowledged: a write
	// enters on a nil CopyFromLocal error, a delete removes on a nil
	// Delete error. The recovery contract is stated over this map.
	acked := map[string][]byte{}
	cl := lc.Client("soak")
	defer func() { cl.Close() }()

	const rounds, crashAt = 24, 12
	for i := 0; i < rounds; i++ {
		if _, err := eng.Run(15); err != nil {
			t.Fatal(err)
		}
		if err := lc.FlushHeartbeats(ctx); err != nil {
			t.Fatal(err)
		}

		name := fmt.Sprintf("file-%03d", i)
		data := durablePayload(i, 1024+i*113)
		if _, _, err := cl.CopyFromLocal(ctx, name, data, i%2 == 0); err == nil {
			acked[name] = data
		} else if !dfs.IsTransient(err) {
			t.Fatalf("round %d: write failed permanently: %v", i, err)
		}
		if i%6 == 5 {
			old := fmt.Sprintf("file-%03d", i-4)
			if _, ok := acked[old]; ok {
				if err := cl.Delete(ctx, old); err == nil {
					delete(acked, old)
				}
			}
		}

		if i == crashAt {
			preFP := lc.NN.NamespaceFingerprint()
			lc.CrashNameNode()
			cl.Close()
			if err := lc.RestartNameNode(stripped, stats.NewRNG(74), cfg); err != nil {
				t.Fatalf("restart from WAL: %v", err)
			}
			if got := lc.NN.NamespaceFingerprint(); got != preFP {
				t.Fatalf("recovery diverged from the crashed namespace:\n pre %s\npost %s", preFP, got)
			}
			cl = lc.Client("soak-reborn")
			if err := lc.FlushHeartbeats(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Quiesce the churn, bring every node up, and let the NameNode
	// hear about it.
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}

	// (1) No acknowledged write lost — names and bytes both exact.
	names := make([]string, 0, len(acked))
	for name := range acked {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("soak acknowledged no writes; the scenario proved nothing")
	}
	listed, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(listed)
	if len(listed) != len(names) {
		t.Fatalf("namespace holds %d files, %d were acked:\n got %v\nwant %v", len(listed), len(names), listed, names)
	}
	for i := range names {
		if listed[i] != names[i] {
			t.Fatalf("namespace diverged at %q vs %q", listed[i], names[i])
		}
	}
	for _, name := range names {
		got, err := cl.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("acked file %q unreadable after recovery: %v", name, err)
		}
		if !bytes.Equal(got, acked[name]) {
			t.Fatalf("acked file %q corrupted after recovery", name)
		}
	}

	// Degraded writes from the churn window heal first, so the later
	// health assertion isolates the dead-node repair.
	lc.NN.RepairScan()
	if h := lc.NN.Engine().Health(); h.UnderReplicated != 0 || h.Unavailable != 0 {
		t.Fatalf("pre-kill repair left %d under-replicated, %d unavailable", h.UnderReplicated, h.Unavailable)
	}

	// (3) Autonomous re-replication: silence a replica holder until
	// the detector declares it dead, then one scan restores full
	// replication on the survivors.
	counts, err := cl.BlockDistribution(ctx, names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	victim := cluster.NodeID(0)
	for id, n := range counts {
		if n > 0 {
			victim = cluster.NodeID(id)
			break
		}
	}
	backdateBeat(lc.NN, victim, time.Now().Add(-time.Minute))
	lc.NN.TickDetector()
	if lc.NN.stores[victim].Up() {
		t.Fatalf("victim %d not declared dead", victim)
	}
	lc.NN.RepairScan()
	if h := lc.NN.Engine().Health(); h.UnderReplicated != 0 || h.Unavailable != 0 {
		t.Fatalf("autonomous repair left %d under-replicated, %d unavailable", h.UnderReplicated, h.Unavailable)
	}

	// (2) Bit-determinism: the WAL directory replays to the same
	// fingerprint twice, and matches the live namespace (every repair
	// relocation was journaled before it was applied).
	liveFP := lc.NN.NamespaceFingerprint()
	rec1, err := RecoverShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := RecoverShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := dfs.FingerprintFiles(rec1[0]), dfs.FingerprintFiles(rec2[0])
	if fp1 != fp2 {
		t.Fatalf("WAL replay not deterministic:\n%s\n%s", fp1, fp2)
	}
	if fp1 != liveFP {
		t.Fatalf("replayed fingerprint %s != live %s", fp1, liveFP)
	}
}
