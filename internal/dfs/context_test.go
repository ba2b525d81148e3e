package dfs

import (
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
	if _, err := cl.CopyFromLocal("f", []byte("payload"), false); err != nil {
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
	if _, err := cl.CopyFromLocal("f", []byte("x"), false); err != nil {
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
	if _, err := cl.ReadFile("f"); err == nil {
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
