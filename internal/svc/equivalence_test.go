package svc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// Protocol equivalence: moving block bytes over the v2 pipeline must be
// observably identical to the engine's in-memory fan-out path — same
// bytes stored and read back, same WriteReports, same placement under
// the same seed — and the error taxonomy must cross both wire formats
// unchanged. Only the transport differs.

const (
	equivSeed        = 7
	equivBlockSize   = 1024
	equivReplication = 2
)

// equivCluster boots a loopback cluster on the fixed seed, so
// placement draws are comparable across clusters.
func equivCluster(t *testing.T) *LocalCluster {
	t.Helper()
	lc, err := StartLocalCluster(restartCluster(t, 4), stats.NewRNG(equivSeed), nil, NameNodeConfig{
		BlockSize:   equivBlockSize,
		Replication: equivReplication,
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

// TestProtocolEquivalenceContent writes the same files through the
// loopback cluster and through the same seed's engine client over
// in-memory DataNodes (the fan-out reference), and asserts
// byte-identical reads, identical WriteReports, and identical
// placement.
func TestProtocolEquivalenceContent(t *testing.T) {
	lc := equivCluster(t)
	cl := lc.Client("shell")
	defer cl.Close()
	refNN, err := dfs.NewNameNode(restartCluster(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dfs.NewClient(refNN, stats.NewRNG(equivSeed))
	if err != nil {
		t.Fatal(err)
	}
	ref.BlockSize = equivBlockSize
	ref.Replication = equivReplication
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Sizes chosen to cross block boundaries every way: sub-block,
	// exact multiple, ragged tail, and empty.
	cases := []struct {
		name string
		size int
	}{
		{"empty", 0},
		{"subblock", 100},
		{"exact", 4 * 1024},
		{"ragged", 5*1024 + 17},
	}
	for _, tc := range cases {
		data := payload(tc.size)
		rm, rr, err := ref.CopyFromLocalReportContext(ctx, tc.name, data, false)
		if err != nil {
			t.Fatalf("%s: reference write: %v", tc.name, err)
		}
		wm, wr, err := cl.CopyFromLocal(ctx, tc.name, data, false)
		if err != nil {
			t.Fatalf("%s: wire write: %v", tc.name, err)
		}
		if rr != wr {
			t.Errorf("%s: WriteReport diverged: reference %+v vs wire %+v", tc.name, rr, wr)
		}
		if len(rm.Blocks) != len(wm.Blocks) {
			t.Fatalf("%s: block counts diverged: %d vs %d", tc.name, len(rm.Blocks), len(wm.Blocks))
		}
		// Same seed, same draws: every block must land on the same
		// holders in the same order.
		for i := range rm.Blocks {
			rb, wb := rm.Blocks[i], wm.Blocks[i]
			if rb.ID != wb.ID || len(rb.Replicas) != len(wb.Replicas) {
				t.Fatalf("%s block %d: meta diverged: %+v vs %+v", tc.name, i, rb, wb)
			}
			for k := range rb.Replicas {
				if rb.Replicas[k] != wb.Replicas[k] {
					t.Errorf("%s block %d: placement diverged: %v vs %v", tc.name, i, rb.Replicas, wb.Replicas)
					break
				}
			}
		}
		rgot, err := ref.ReadFileContext(ctx, tc.name)
		if err != nil {
			t.Fatalf("%s: reference read: %v", tc.name, err)
		}
		wgot, err := cl.ReadFile(ctx, tc.name)
		if err != nil {
			t.Fatalf("%s: wire read: %v", tc.name, err)
		}
		if !bytes.Equal(rgot, data) || !bytes.Equal(wgot, data) {
			t.Errorf("%s: read bytes differ from written", tc.name)
		}
	}

	// Cross-check the stored replicas bit for bit, not just through
	// the read path: fsck-grade equivalence.
	if err := refNN.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolEquivalenceErrors: reading a block that does not exist
// must surface dfs.ErrBlockNotFound, non-transient, across the wire.
func TestProtocolEquivalenceErrors(t *testing.T) {
	lc := equivCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := lc.Engine().Store(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Get(ctx, dfs.BlockID(12345), nil)
	if !errors.Is(err, dfs.ErrBlockNotFound) {
		t.Errorf("missing block get = %v, want ErrBlockNotFound", err)
	}
	if dfs.IsTransient(err) {
		t.Error("missing block classified transient")
	}
}
