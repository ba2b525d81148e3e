package dfs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// contextFixture builds an n-node all-dedicated cluster with tiny
// blocks and a retry policy that would spin for a long time if the
// context were ignored.
func contextFixture(t *testing.T, n int) (*NameNode, *Client) {
	t.Helper()
	nodes := make([]cluster.Node, n)
	c, err := cluster.New(nodes)
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
	cl.BlockSize = 64
	return nn, cl
}

// TestReadDeadlineBoundsRetries proves a context deadline cuts the
// retry loop short: with every replica holder down and a retry policy
// whose waits sum to far beyond the deadline, ReadFileContext must
// return promptly with a context error, not after MaxAttempts.
func TestReadDeadlineBoundsRetries(t *testing.T) {
	nn, cl := contextFixture(t, 4)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	fm, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fm.Blocks[0].Replicas {
		mustDataNode(t, nn, r).SetUp(false)
	}

	cl.Retry = RetryPolicy{MaxAttempts: 50, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.ReadFileContext(ctx, "f")
	if err == nil {
		t.Fatal("read of a fully-down file succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline ignored: read took %v", elapsed)
	}
}

// TestCancelStopsWriteBackoff proves cancellation interrupts the
// write path's no-live-node backoff.
func TestCancelStopsWriteBackoff(t *testing.T) {
	nn, cl := contextFixture(t, 3)
	for i := 0; i < 3; i++ {
		mustDataNode(t, nn, cluster.NodeID(i)).SetUp(false)
	}
	cl.Retry = RetryPolicy{MaxAttempts: 1000, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := cl.CopyFromLocalReportContext(ctx, "f", []byte("data"), false)
	if err == nil {
		t.Fatal("write with every node down succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation ignored: write took %v", elapsed)
	}
}

// TestNoDeadlineKeepsCountSemantics pins the compatibility contract:
// with a background context the retry loop runs exactly MaxAttempts
// times, as it always has.
func TestNoDeadlineKeepsCountSemantics(t *testing.T) {
	nn, cl := contextFixture(t, 2)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	fm, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fm.Blocks[0].Replicas {
		mustDataNode(t, nn, r).SetUp(false)
	}

	waits := 0
	cl.Retry = RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Nanosecond,
		Sleep:       func(time.Duration) { waits++ },
	}
	if _, err := cl.ReadFileContext(context.Background(), "f"); err == nil {
		t.Fatal("read of a fully-down file succeeded")
	}
	if waits != 4 {
		t.Fatalf("backoff waits = %d, want MaxAttempts-1 = 4", waits)
	}
	if got := nn.Resilience().Snapshot().ReadRetries; got != 4 {
		t.Fatalf("ReadRetries = %d, want 4", got)
	}
}

// TestWaitHonorsVirtualSleepThenContext pins the virtual-time rule:
// an installed Sleep hook always runs the full backoff, and the
// context is only consulted at the boundary.
func TestWaitHonorsVirtualSleepThenContext(t *testing.T) {
	slept := time.Duration(0)
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Sleep: func(d time.Duration) { slept += d }}
	if err := p.wait(context.Background(), 1); err != nil {
		t.Fatalf("wait with background ctx: %v", err)
	}
	if slept != 10*time.Millisecond {
		t.Fatalf("virtual sleep = %v, want 10ms", slept)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.wait(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on cancelled ctx = %v, want Canceled", err)
	}
	if slept != 30*time.Millisecond {
		t.Fatalf("virtual sleep = %v, want 30ms (backoff still runs in virtual time)", slept)
	}
}

// deleteLog is shared by a cluster's deadlineStores: how many deletes
// arrived, how many of them with no deadline, and how many Puts are
// still let through once putsLeft is armed (>= 0).
type deleteLog struct {
	deletes, unbounded int
	putsLeft           int
}

// deadlineStore is an in-process store that records every Delete whose
// context carries no deadline — over the network such a delete waits
// for as long as the DataNode takes to answer — and refuses Puts once
// the shared Put budget is spent.
type deadlineStore struct {
	localStore
	log *deleteLog
}

func (s deadlineStore) Put(ctx context.Context, id BlockID, data []byte) (uint32, error) {
	if s.log.putsLeft == 0 {
		return 0, ErrNodeDown
	}
	if s.log.putsLeft > 0 {
		s.log.putsLeft--
	}
	return s.localStore.Put(ctx, id, data)
}

func (s deadlineStore) Delete(ctx context.Context, id BlockID) error {
	s.log.deletes++
	if _, ok := ctx.Deadline(); !ok {
		s.log.unbounded++
	}
	return s.localStore.Delete(ctx, id)
}

// TestRedistributeDeletesAreBounded: the replicas an adapt retires and
// the copies an aborted adapt unwinds are deleted under a deadline, so
// a DataNode that accepts a delete and never answers cannot hold the
// file's structural lock forever.
func TestRedistributeDeletesAreBounded(t *testing.T) {
	for _, abort := range []bool{false, true} {
		c := testCluster(t, 16)
		log := &deleteLog{putsLeft: -1}
		stores := make([]BlockStore, c.Len())
		for i := range stores {
			stores[i] = deadlineStore{localStore{NewDataNode(cluster.NodeID(i))}, log}
		}
		nn, err := NewNameNodeSharded(c, stores, 1)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewClient(nn, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		cl.BlockSize = 10
		data := payload(20 * 10)
		if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
			t.Fatal(err)
		}
		if abort {
			log.putsLeft = 1 // the adapt's second new replica is refused
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		moved, err := cl.Adapt(ctx, "f")
		cancel()
		switch {
		case abort && err == nil:
			t.Fatal("adapt with a refused Put succeeded")
		case !abort && (err != nil || moved == 0):
			t.Fatalf("adapt moved %d replicas, err %v; want a move", moved, err)
		}
		if log.deletes == 0 {
			t.Fatalf("abort=%v: adapt deleted nothing", abort)
		}
		if log.unbounded != 0 {
			t.Fatalf("abort=%v: %d of %d deletes had no deadline", abort, log.unbounded, log.deletes)
		}
		log.putsLeft = -1
		if err := nn.CheckConsistency(context.Background()); err != nil {
			t.Fatal(err)
		}
		got, err := cl.ReadFileContext(context.Background(), "f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("abort=%v: read back %d bytes, err %v", abort, len(got), err)
		}
	}
}
