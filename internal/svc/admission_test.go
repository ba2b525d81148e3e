package svc

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

func TestClassOf(t *testing.T) {
	cases := map[string]rpcClass{
		"nn.heartbeat": classControl,
		"nn.cluster":   classControl,
		"nn.allocate":  classPut,
		"nn.complete":  classControl,
		"nn.locate":    classGet,
		"nn.stat":      classBackground,
		"nn.rebalance": classBackground,
		"made.up":      classBackground,
	}
	table := (&NameNodeServer{}).methods()
	for method, want := range cases {
		if got := table.classOf(method); got != want {
			t.Errorf("classOf(%q) = %v, want %v", method, got, want)
		}
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, Queue: 1})
	ctx := context.Background()

	release, err := a.acquire(ctx, classPut)
	if err != nil {
		t.Fatal(err)
	}
	// Second request queues; it must eventually get the slot.
	granted := make(chan error, 1)
	go func() {
		r2, err := a.acquire(ctx, classPut)
		if err == nil {
			r2()
		}
		granted <- err
	}()
	waitFor(t, func() bool { return a.QueueDepth() == 1 }, "second acquire queued")

	// Third request finds the queue at capacity: shed, typed, transient.
	_, err = a.acquire(ctx, classPut)
	if !errors.Is(err, dfs.ErrOverload) {
		t.Fatalf("queue-full shed error = %v, want ErrOverload", err)
	}
	if !dfs.IsTransient(err) {
		t.Fatalf("overload shed must be transient (retryable): %v", err)
	}
	release()
	if err := <-granted; err != nil {
		t.Fatalf("queued request shed after a slot freed: %v", err)
	}
	st := a.Stats()
	if st.Admitted.Load() != 2 || st.QueueWaits.Load() != 1 || st.ShedQueueFull.Load() != 1 {
		t.Fatalf("admitted=%d queueWaits=%d shedQueueFull=%d, want 2/1/1",
			st.Admitted.Load(), st.QueueWaits.Load(), st.ShedQueueFull.Load())
	}
}

// TestAdmissionSlotHandover pins the releaser-to-waiter handover:
// inflight never dips below max while a waiter exists, and the queue
// drains FIFO without a thundering herd.
func TestAdmissionSlotHandover(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, Queue: 2})
	ctx := context.Background()
	release, err := a.acquire(ctx, classGet)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		i := i
		go func() {
			r, err := a.acquire(ctx, classGet)
			if err != nil {
				order <- -i
				return
			}
			order <- i
			r()
		}()
		waitFor(t, func() bool { return a.QueueDepth() == i }, "waiter queued")
	}
	release()
	if got := <-order; got != 1 {
		t.Fatalf("first grant went to waiter %d, want 1 (FIFO)", got)
	}
	if got := <-order; got != 2 {
		t.Fatalf("second grant went to waiter %d, want 2 (FIFO)", got)
	}
	waitFor(t, func() bool { return a.Inflight() == 0 }, "all slots released")
	if a.Stats().Admitted.Load() != 3 {
		t.Fatalf("admitted = %d, want 3", a.Stats().Admitted.Load())
	}
}

func TestAdmissionBrownoutShedsBackgroundFirst(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 4, Queue: 4, BrownoutPct: 50})
	ctx := context.Background()
	for i := 0; i < 2; i++ { // 2/4 inflight = the brownout threshold
		if _, err := a.acquire(ctx, classPut); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.acquire(ctx, classBackground); !errors.Is(err, dfs.ErrOverload) {
		t.Fatalf("background at brownout = %v, want ErrOverload", err)
	}
	// Data-plane traffic still has the remaining headroom.
	if _, err := a.acquire(ctx, classPut); err != nil {
		t.Fatalf("put shed while budget had headroom: %v", err)
	}
	if _, err := a.acquire(ctx, classGet); err != nil {
		t.Fatalf("get shed while budget had headroom: %v", err)
	}
	if a.Stats().ShedBrownout.Load() != 1 {
		t.Fatalf("shedBrownout = %d, want 1", a.Stats().ShedBrownout.Load())
	}
}

// TestAdmissionBrownoutRoundsUp: brownout sheds background traffic at
// utilisation ≥ BrownoutPct, so a budget too small to hit the
// percentage exactly browns out at the next whole request, never below
// it: an idle one-slot server admits background traffic, and sheds it
// only while its slot is taken; a three-slot one at 50% sheds from two
// in flight.
func TestAdmissionBrownoutRoundsUp(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ max, pct, at int }{{1, 75, 1}, {3, 50, 2}, {5, 75, 4}} {
		a := newAdmission(AdmissionConfig{MaxInflight: tc.max, BrownoutPct: tc.pct})
		for i := 0; i < tc.at; i++ {
			release, err := a.acquire(ctx, classBackground)
			if err != nil {
				t.Fatalf("%d slots at %d%%: background at %d/%d inflight = %v, want admitted", tc.max, tc.pct, i, tc.max, err)
			}
			release()
			if _, err := a.acquire(ctx, classPut); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.acquire(ctx, classBackground); !errors.Is(err, dfs.ErrOverload) {
			t.Fatalf("%d slots at %d%%: background at %d/%d inflight = %v, want ErrOverload", tc.max, tc.pct, tc.at, tc.max, err)
		}
	}
}

func TestAdmissionControlClassNeverShed(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, Queue: 1})
	ctx := context.Background()
	r1, err := a.acquire(ctx, classPut)
	if err != nil {
		t.Fatal(err)
	}
	defer r1() // drains the queued waiter below at test end
	// Saturate the queue too.
	go func() {
		if r, err := a.acquire(ctx, classPut); err == nil {
			r()
		}
	}()
	waitFor(t, func() bool { return a.QueueDepth() == 1 }, "queue saturated")
	// Heartbeats must still land, or the overloaded cluster goes blind.
	release, err := a.acquire(ctx, classControl)
	if err != nil {
		t.Fatalf("control class shed under saturation: %v", err)
	}
	release()
	if a.Inflight() != 1 {
		t.Fatalf("control release disturbed the budget: inflight = %d, want 1", a.Inflight())
	}
}

func TestAdmissionQueuedRequestShedsOnExpiredBudget(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, Queue: 4})
	if _, err := a.acquire(context.Background(), classGet); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := a.acquire(ctx, classGet)
	if !errors.Is(err, dfs.ErrOverload) {
		t.Fatalf("expired-in-queue error = %v, want ErrOverload", err)
	}
	if !dfs.IsTransient(err) {
		t.Fatalf("expired-in-queue shed must be transient: %v", err)
	}
	if a.Stats().ShedExpired.Load() != 1 {
		t.Fatalf("shedExpired = %d, want 1", a.Stats().ShedExpired.Load())
	}
	if a.QueueDepth() != 0 {
		t.Fatalf("expired waiter still queued: depth %d", a.QueueDepth())
	}
}

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *admission
	if a != newAdmission(AdmissionConfig{}) {
		t.Fatal("zero config must disable admission")
	}
	release, err := a.acquire(context.Background(), classBackground)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if a.QueueDepth() != 0 || a.Inflight() != 0 || a.Stats() != nil {
		t.Fatal("nil admission must report empty state")
	}
}

// waitFor polls a condition with a deadline — for asserting on state
// another goroutine reaches asynchronously.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
