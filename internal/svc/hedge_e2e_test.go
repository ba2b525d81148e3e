package svc

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// hedgeCluster boots a 4-node cluster with hedged reads enabled and no
// breakers, so the hedge path alone must cope with a gray replica.
func hedgeCluster(t *testing.T, hedge HedgeConfig) (*LocalCluster, *chaos.NetFaults) {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	faults, err := chaos.NewNetFaults(stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(7), faults, NameNodeConfig{
		BlockSize:   4096,
		Replication: 2,
		HedgeReads:  true,
		Hedge:       hedge,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	return lc, faults
}

// TestHedgedReadWinsAgainstGrayReplica grays the primary replica of a
// block and requires the hedge to rescue every read: the backup fetch
// fires after the threshold, wins, returns byte-identical data fast,
// and the cancelled loser does not poison the primary's liveness
// (proved by the reads continuing to hedge — a down-marked primary
// would drop out of the live list and the reads would stop needing
// hedges at all).
func TestHedgedReadWinsAgainstGrayReplica(t *testing.T) {
	lc, faults := hedgeCluster(t, HedgeConfig{
		Quantile:   0.5,
		Multiplier: 2,
		MinDelay:   10 * time.Millisecond,
		Window:     32,
		MinSamples: 4,
	})
	cl := lc.Client("hedge")
	defer cl.Close()
	ctx := context.Background()

	data := payload(4096) // one block
	if _, _, err := cl.CopyFromLocal(ctx, "h", data, true); err != nil {
		t.Fatal(err)
	}
	// Warm reads fill the latency window past MinSamples; on loopback
	// the threshold settles at the MinDelay floor.
	for i := 0; i < 6; i++ {
		if _, err := cl.ReadFile(ctx, "h"); err != nil {
			t.Fatalf("warm read %d: %v", i, err)
		}
	}
	fm, err := cl.Stat(ctx, "h")
	if err != nil {
		t.Fatal(err)
	}
	primary := fm.Blocks[0].Replicas[0]
	// Multi-block files for the end, written while every node is fast.
	multi := [][]byte{payload(3 * 4096), payload(5*4096 + 123)}
	metas := make([]*dfs.FileMeta, len(multi))
	for i, want := range multi {
		if metas[i], _, err = cl.CopyFromLocal(ctx, fmt.Sprintf("multi%d", i), want, true); err != nil {
			t.Fatal(err)
		}
	}
	faults.SetGray(endpointName(primary), 2*time.Second)
	base := cl.resilience()

	for i := 0; i < 3; i++ {
		rctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		t0 := time.Now()
		got, err := cl.ReadFile(rctx, "h")
		took := time.Since(t0)
		cancel()
		if err != nil {
			t.Fatalf("read %d with gray primary: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d: hedged bytes differ from written", i)
		}
		if took > time.Second {
			t.Fatalf("read %d took %v: the hedge did not rescue it", i, took)
		}
	}

	snap := cl.resilience()
	if hedged := snap.HedgedReads - base.HedgedReads; hedged < 3 {
		t.Fatalf("hedged reads = %d, want >= 3 (one per gray read)", hedged)
	}
	if wins := snap.HedgeWins - base.HedgeWins; wins < 1 {
		t.Fatalf("hedge wins = %d, want >= 1", wins)
	}

	// Multi-block files, read with the gray node first in every block's
	// replica list, so a hedge fires on every block read: the gray
	// primary reads in place into the file being assembled, the backup
	// into a buffer of its own, and the winning backup is appended only
	// once the primary's cancelled fetch has returned, so the bytes come
	// back exact however the cancels interleave (run under -race).
	dp, err := cl.dataPathFor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range multi {
		name, fm := fmt.Sprintf("multi%d", i), metas[i]
		grayFirst := func(context.Context) (*dfs.FileMeta, error) {
			out := *fm
			out.Blocks = make([]dfs.BlockMeta, len(fm.Blocks))
			for j, bm := range fm.Blocks {
				rs := []cluster.NodeID{primary}
				for _, r := range bm.Replicas {
					if r != primary {
						rs = append(rs, r)
					}
				}
				bm.Replicas = rs
				out.Blocks[j] = bm
			}
			return &out, nil
		}
		before := cl.resilience()
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		got, err := dp.io.ReadFile(rctx, name, grayFirst, clientRetry)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: hedged multi-block read differs from written", name)
		}
		after := cl.resilience()
		if hedged, wins := after.HedgedReads-before.HedgedReads, after.HedgeWins-before.HedgeWins; hedged != int64(len(fm.Blocks)) || wins != hedged {
			t.Fatalf("%s: %d blocks, %d hedged reads, %d hedge wins; want a winning hedge per block", name, len(fm.Blocks), hedged, wins)
		}
	}

	// Hedges whose racers both stream: the gray node healed and the
	// threshold at the last winner's latency, so a backup often starts
	// while the primary is still moving bytes into the file in place,
	// and both racers write theirs. Had the backup been appended while
	// the primary could still write there, -race would see it.
	faults.ClearGray(endpointName(primary))
	if err := dp.io.SetHedge(HedgeConfig{Quantile: 0.01, Multiplier: 1, MinDelay: time.Nanosecond, Window: 1, MinSamples: 1}); err != nil {
		t.Fatal(err)
	}
	before := cl.resilience()
	for round := 0; round < 10; round++ {
		for i, want := range multi {
			got, err := cl.ReadFile(ctx, fmt.Sprintf("multi%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: racing hedged read of multi%d differs from written", round, i)
			}
		}
	}
	if hedged := cl.resilience().HedgedReads - before.HedgedReads; hedged == 0 {
		t.Fatal("no read hedged at a threshold of the last winner's latency")
	}
}

// TestHedgeQuietOnFastCluster: with a healthy cluster and a threshold
// parked far above observed latency, reads must never hedge — hedging
// on noise would double read traffic for nothing.
func TestHedgeQuietOnFastCluster(t *testing.T) {
	lc, _ := hedgeCluster(t, HedgeConfig{
		Quantile:   0.95,
		Multiplier: 20,
		MinDelay:   300 * time.Millisecond,
		Window:     32,
		MinSamples: 4,
	})
	cl := lc.Client("quiet")
	defer cl.Close()
	ctx := context.Background()

	data := payload(4096)
	if _, _, err := cl.CopyFromLocal(ctx, "q", data, true); err != nil {
		t.Fatal(err)
	}
	base := cl.resilience()
	for i := 0; i < 20; i++ {
		got, err := cl.ReadFile(ctx, "q")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d: bytes differ", i)
		}
	}
	snap := cl.resilience()
	if hedged := snap.HedgedReads - base.HedgedReads; hedged != 0 {
		t.Fatalf("fast cluster hedged %d reads, want 0", hedged)
	}
}
