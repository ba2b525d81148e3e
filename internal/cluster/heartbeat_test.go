package cluster

import (
	"math"
	"sync"
	"testing"

	"github.com/adaptsim/adapt/internal/model"
)

func TestHeartbeatEstimatorBasic(t *testing.T) {
	h := NewHeartbeatEstimator()
	id := NodeID(3)

	// Unknown node estimates dedicated.
	if !h.Estimate(id).Dedicated() {
		t.Fatal("unknown node not dedicated")
	}

	// Observe 980 s up and 5 outages of 4 s each: λ̂ = 5/980, and
	// μ̂ = (20/1000)/λ̂ = 3.92.
	if err := h.ObserveUptime(id, 980); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.ObserveInterruption(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	a := h.Estimate(id)
	if math.Abs(a.Lambda-5.0/980.0) > 1e-12 {
		t.Fatalf("lambda = %g, want 5/980", a.Lambda)
	}
	if math.Abs(a.Mu-3.92) > 1e-12 {
		t.Fatalf("mu = %g, want 3.92", a.Mu)
	}
}

func TestHeartbeatEstimatorRejectsNegative(t *testing.T) {
	h := NewHeartbeatEstimator()
	if err := h.ObserveUptime(0, -1); err == nil {
		t.Fatal("negative uptime accepted")
	}
	if err := h.ObserveInterruption(0, -1); err == nil {
		t.Fatal("negative downtime accepted")
	}
}

func TestHeartbeatEstimatorNoInterruptions(t *testing.T) {
	h := NewHeartbeatEstimator()
	if err := h.ObserveUptime(1, 500); err != nil {
		t.Fatal(err)
	}
	if !h.Estimate(1).Dedicated() {
		t.Fatal("uninterrupted node should estimate dedicated")
	}
}

func TestHeartbeatEstimatorSnapshotAndApply(t *testing.T) {
	h := NewHeartbeatEstimator()
	if err := h.ObserveUptime(0, 96); err != nil {
		t.Fatal(err)
	}
	if err := h.ObserveInterruption(0, 4); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	if a := snap[0]; math.Abs(a.Lambda-1.0/96) > 1e-12 {
		t.Fatalf("snapshot lambda = %g, want 1/96", a.Lambda)
	}

	// A node the cluster does not know is skipped without effect.
	if err := h.ObserveUptime(99, 10); err != nil {
		t.Fatal(err)
	}
	if err := h.ObserveInterruption(99, 1); err != nil {
		t.Fatal(err)
	}

	orig := model.FromMTBI(600, 30)
	c, err := New([]Node{{}, {Availability: orig}})
	if err != nil {
		t.Fatal(err)
	}
	got := h.Apply(c)
	if got == c || got.Len() != c.Len() {
		t.Fatalf("Apply returned %p with %d nodes, want a fresh copy of %d", got, got.Len(), c.Len())
	}
	if got.Node(0).Availability != snap[0] {
		t.Fatalf("node 0 = %+v, want the estimate %+v", got.Node(0).Availability, snap[0])
	}
	if got.Node(1).Availability != orig {
		t.Fatal("node 1 has no estimate but was overwritten")
	}
	if !c.Node(0).Availability.Dedicated() {
		t.Fatal("Apply wrote into its input")
	}
}

func TestHeartbeatEstimatorConcurrent(t *testing.T) {
	h := NewHeartbeatEstimator()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := NodeID(w % 4)
			for i := 0; i < 100; i++ {
				_ = h.ObserveUptime(id, 1)
				_ = h.ObserveInterruption(id, 0.5)
				_ = h.Estimate(id)
			}
		}(w)
	}
	wg.Wait()
	for id := NodeID(0); id < 4; id++ {
		a := h.Estimate(id)
		// Each of the 4 ids was touched by 2 workers: 200 uptime
		// seconds, 200 outages of 0.5 s. λ̂ = 200/200, and μ̂ is the
		// down fraction 100/300 over λ̂.
		if math.Abs(a.Mu-1.0/3) > 1e-12 {
			t.Fatalf("node %d mu = %g, want 1/3", id, a.Mu)
		}
		wantLambda := 1.0
		if math.Abs(a.Lambda-wantLambda) > 1e-9 {
			t.Fatalf("node %d lambda = %g, want %g", id, a.Lambda, wantLambda)
		}
	}
}

func TestHeartbeatObservedAndConcurrentSnapshots(t *testing.T) {
	h := NewHeartbeatEstimator()
	if sec, n := h.Observed(0); sec != 0 || n != 0 {
		t.Fatalf("unobserved node reports (%g, %d)", sec, n)
	}
	c, err := New(make([]Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: Snapshot and Observed race against the observers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Snapshot()
					_, _ = h.Observed(1)
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id NodeID) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = h.ObserveUptime(id, 2)
				_ = h.ObserveInterruption(id, 1)
			}
		}(NodeID(w))
	}
	// Wait for observers only, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		allDone := true
		for id := NodeID(0); id < 4; id++ {
			if _, n := h.Observed(id); n < 200 {
				allDone = false
			}
		}
		if allDone {
			break
		}
	}
	close(stop)
	<-done

	for id := NodeID(0); id < 4; id++ {
		sec, n := h.Observed(id)
		if n != 200 || math.Abs(sec-600) > 1e-9 {
			t.Fatalf("node %d observed (%g, %d), want (600, 200)", id, sec, n)
		}
	}
	// 400 s up, 200 outages of 1 s: μ̂ = (200/600)/(200/400) = 2/3.
	applied := h.Apply(c)
	for id := NodeID(0); id < 4; id++ {
		if mu := applied.Node(id).Availability.Mu; math.Abs(mu-2.0/3) > 1e-9 {
			t.Fatalf("node %d applied mu = %g, want 2/3", id, mu)
		}
	}
}
