package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/wal"
)

// TestShardedCrashRecoverySoak is the sharded-namespace headline: a
// NameNode running 4 namespace shards, each with its own journal
// under one WAL root, takes a multi-tenant workload, is SIGKILL'd
// mid-stream, restarts from the sharded layout, and must prove:
//
//  1. No acknowledged write lost — every acked file reads back
//     byte-for-byte, deletes stay deleted.
//  2. Per-shard bit-determinism — each shard's post-restart
//     fingerprint matches its pre-crash fingerprint, and two
//     independent replays of each shard's log agree.
//  3. Tenant quotas survive recovery — usage is recomputed from the
//     recovered namespace and admission control still enforces the
//     configured ceilings.
func TestShardedCrashRecoverySoak(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	cfg := NameNodeConfig{
		BlockSize:     512,
		Replication:   2,
		WALDir:        dir,
		snapshotEvery: 8,
		Shards:        shards,
		TenantQuotas: map[string]shard.Quota{
			"acme": {MaxFiles: 1000},
			"beta": {MaxFiles: 4, MaxRF: 2},
		},
	}
	lc := bootDurable(t, 4, 91, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cl := lc.Client("soak")
	defer func() { cl.Close() }()

	acked := map[string][]byte{}
	write := func(name string, i int) {
		t.Helper()
		data := durablePayload(i, 600+i*97)
		if _, _, err := cl.CopyFromLocal(ctx, name, data, i%2 == 0); err != nil {
			t.Fatalf("write %q: %v", name, err)
		}
		acked[name] = data
	}
	for i := 0; i < 10; i++ {
		write(fmt.Sprintf("@acme/f-%03d", i), i)
	}
	for i := 0; i < 3; i++ {
		write(fmt.Sprintf("@beta/g-%03d", i), 10+i)
	}
	for i := 0; i < 6; i++ {
		write(fmt.Sprintf("plain-%03d", i), 20+i)
	}
	if err := cl.Delete(ctx, "@acme/f-001"); err != nil {
		t.Fatal(err)
	}
	delete(acked, "@acme/f-001")

	// Tenant beta is at 3 of 4 files: one more fits, the next must be
	// vetoed with the quota sentinel across the wire.
	write("@beta/g-003", 13)
	if _, _, err := cl.CopyFromLocal(ctx, "@beta/g-004", durablePayload(14, 700), false); !errors.Is(err, shard.ErrQuota) {
		t.Fatalf("over-quota create err = %v, want shard.ErrQuota", err)
	}

	// The workload must actually have spread across journals, or the
	// per-shard claims below are vacuous.
	seqs := lc.NN.WALShardSeqs()
	if len(seqs) != shards {
		t.Fatalf("%d shard journals, want %d", len(seqs), shards)
	}
	busy := 0
	for _, sq := range seqs {
		if sq[0] > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("workload landed in %d shard journals; test proves nothing", busy)
	}

	preFP := make([]string, shards)
	for i := range preFP {
		preFP[i] = lc.NN.ShardFingerprint(i)
	}

	lc.CrashNameNode()
	cl.Close()
	if err := lc.RestartNameNode(restartCluster(t, 4), stats.NewRNG(92), cfg); err != nil {
		t.Fatalf("restart from sharded WAL: %v", err)
	}
	cl = lc.Client("soak-reborn")

	// (2) Per-shard bit-determinism, live side.
	for i := range preFP {
		if got := lc.NN.ShardFingerprint(i); got != preFP[i] {
			t.Fatalf("shard %d diverged across crash:\n pre %s\npost %s", i, preFP[i], got)
		}
	}
	// …and replay side: two independent recoveries of the root agree
	// shard by shard with the live tables.
	rec1, err := RecoverShards(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := RecoverShards(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		fp1, fp2 := dfs.FingerprintFiles(rec1[i]), dfs.FingerprintFiles(rec2[i])
		if fp1 != fp2 {
			t.Fatalf("shard %d replay nondeterministic:\n 1st %s\n 2nd %s", i, fp1, fp2)
		}
		if fp1 != preFP[i] {
			t.Fatalf("shard %d replay diverged from live:\n replay %s\n   live %s", i, fp1, preFP[i])
		}
	}

	// (1) Zero acked writes lost.
	for name, data := range acked {
		got, err := cl.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("acked file %q unreadable after recovery: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("acked file %q corrupted after recovery", name)
		}
	}
	if _, err := cl.Stat(ctx, "@acme/f-001"); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("deleted file resurrected: %v", err)
	}

	// (3) Quota state recomputed from the recovered namespace: beta is
	// full again, releasing one file readmits exactly one more.
	if _, _, err := cl.CopyFromLocal(ctx, "@beta/g-005", durablePayload(15, 700), false); !errors.Is(err, shard.ErrQuota) {
		t.Fatalf("post-recovery over-quota create err = %v, want shard.ErrQuota", err)
	}
	if err := cl.Delete(ctx, "@beta/g-000"); err != nil {
		t.Fatal(err)
	}
	delete(acked, "@beta/g-000")
	if _, _, err := cl.CopyFromLocal(ctx, "@beta/g-005", durablePayload(15, 700), false); err != nil {
		t.Fatalf("post-release create should fit the quota: %v", err)
	}
	// The RF ceiling survived recovery too: beta caps replication at
	// 2, so a 3-replica admission is vetoed even with file headroom.
	if err := lc.NN.Engine().Quotas().Check("beta", 1, 1, 3); !errors.Is(err, shard.ErrQuota) {
		t.Fatalf("RF-over-ceiling admission err = %v, want shard.ErrQuota", err)
	}

	// fsck surfaces the tenancy rollup.
	h := lc.NN.Engine().Health()
	if h.Shards != shards {
		t.Fatalf("fsck shards = %d, want %d", h.Shards, shards)
	}
	foundBeta := false
	for _, tu := range h.Tenants {
		if tu.Tenant == "beta" {
			foundBeta = true
			if tu.Usage.Files != 4 {
				t.Fatalf("beta usage = %d files, want 4", tu.Usage.Files)
			}
		}
	}
	if !foundBeta {
		t.Fatal("fsck tenant rollup missing beta")
	}
}

// TestShardedJournalChurnReplay is the sharded metadata claim under
// concurrency: 8 engine clients create/create/create/delete across 4
// shards, each shard journaling to its own real WAL directory, while
// nodes flip up and down; every journal is then abandoned the way
// SIGKILL would and the root is replayed twice. Each shard's two
// replays must fingerprint equal to each other and to the live
// pre-crash shard, and every file acked live at crash time must be in
// the replayed image at its exact size.
func TestShardedJournalChurnReplay(t *testing.T) {
	const (
		shards       = 4
		workers      = 8
		opsPerWorker = 20
		nodes        = 8
		churnEvery   = 16
		fileSize     = 512
	)
	root := t.TempDir()
	nn, err := dfs.NewNameNodeSharded(restartCluster(t, nodes), nil, shards)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := wal.ShardDirs(root, shards)
	if err != nil {
		t.Fatal(err)
	}
	journals := make([]*walJournal, shards)
	hooks := make([]dfs.Journal, shards)
	for i, dir := range dirs {
		j, files, err := openJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.log.Close() })
		if err := nn.RestoreShard(i, files); err != nil {
			t.Fatal(err)
		}
		journals[i], hooks[i] = j, j
	}
	if err := nn.SetShardJournals(hooks); err != nil {
		t.Fatal(err)
	}

	// Churn is driven by a global op counter, so the flip schedule
	// depends on progress, not timers: the node that is down revives and
	// another goes down, so placement never starves.
	var opCounter atomic.Int64
	var churnMu sync.Mutex
	churns, downNode := 0, -1
	churn := func() {
		churnMu.Lock()
		defer churnMu.Unlock()
		if downNode >= 0 {
			_ = nn.SetNodeUp(cluster.NodeID(downNode), true)
		}
		downNode = (downNode + 1 + churns) % nodes
		_ = nn.SetNodeUp(cluster.NodeID(downNode), false)
		churns++
	}

	g := stats.NewRNG(7)
	live := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, g *stats.RNG) {
			defer wg.Done()
			cl, err := dfs.NewClient(nn, g)
			if err != nil {
				errs[w] = err
				return
			}
			cl.BlockSize = fileSize
			cl.Replication = 2
			for op := 0; op < opsPerWorker; op++ {
				if opCounter.Add(1)%churnEvery == 0 {
					churn()
				}
				if op%4 == 3 {
					if err := nn.DeleteContext(context.Background(), live[w][0]); err != nil {
						errs[w] = fmt.Errorf("delete %q: %w", live[w][0], err)
						return
					}
					live[w] = live[w][1:]
					continue
				}
				name := fmt.Sprintf("@t%d/w%d-f%06d", w%4, w, op)
				if _, _, err := cl.CopyFromLocalReportContext(context.Background(), name, durablePayload(w*100000+op, fileSize), op%2 == 0); err != nil {
					errs[w] = fmt.Errorf("create %q: %w", name, err)
					return
				}
				live[w] = append(live[w], name)
			}
		}(w, g.Split())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if churns == 0 {
		t.Fatal("workload ran without churn")
	}

	liveFP := make([]string, shards)
	for i := range liveFP {
		liveFP[i] = nn.FingerprintShard(i)
	}
	for i, j := range journals {
		if j.log.Seq() == 0 {
			t.Fatalf("shard %d journaled nothing; the per-shard claims are vacuous", i)
		}
		j.log.Crash()
	}
	rec1, err := RecoverShards(root, shards)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	rec2, err := RecoverShards(root, shards)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	recovered := make(map[string]int64)
	for i := 0; i < shards; i++ {
		fp1, fp2 := dfs.FingerprintFiles(rec1[i]), dfs.FingerprintFiles(rec2[i])
		if fp1 != fp2 {
			t.Errorf("shard %d replay nondeterministic:\n 1st %s\n 2nd %s", i, fp1, fp2)
		}
		if fp1 != liveFP[i] {
			t.Errorf("shard %d replay diverged from live:\n replay %s\n   live %s", i, fp1, liveFP[i])
		}
		for _, fm := range rec1[i] {
			recovered[fm.Name] = fm.Size
		}
	}
	for w := range live {
		if len(live[w]) == 0 {
			t.Fatalf("worker %d left no acked file", w)
		}
		for _, name := range live[w] {
			if size, ok := recovered[name]; !ok || size != fileSize {
				t.Errorf("acked file %q after replay: present=%v size=%d, want %d", name, ok, size, fileSize)
			}
		}
	}
}
