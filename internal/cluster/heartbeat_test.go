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

	// Observe 1000 s with 5 interruptions of 4 s each.
	if err := h.ObserveUptime(id, 980); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.ObserveInterruption(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	a := h.Estimate(id)
	if math.Abs(a.Lambda-5.0/1000.0) > 1e-12 {
		t.Fatalf("lambda = %g, want 0.005", a.Lambda)
	}
	if math.Abs(a.Mu-4) > 1e-12 {
		t.Fatalf("mu = %g, want 4", a.Mu)
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
	if a := snap[0]; math.Abs(a.Lambda-0.01) > 1e-12 {
		t.Fatalf("snapshot lambda = %g", a.Lambda)
	}

	// A node the cluster does not know is skipped without effect.
	if err := h.ObserveBatch(99, 10, 1, 1); err != nil {
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
		// seconds, 200 interruptions of 0.5 s.
		if math.Abs(a.Mu-0.5) > 1e-12 {
			t.Fatalf("node %d mu = %g", id, a.Mu)
		}
		wantLambda := 200.0 / 300.0
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
	applied := h.Apply(c)
	for id := NodeID(0); id < 4; id++ {
		if mu := applied.Node(id).Availability.Mu; math.Abs(mu-1) > 1e-9 {
			t.Fatalf("node %d applied mu = %g, want 1", id, mu)
		}
	}
}

// TestObserveBatchEquivalence proves one ObserveBatch equals the
// incremental calls it summarizes, and that it rejects bad deltas.
func TestObserveBatchEquivalence(t *testing.T) {
	inc := NewHeartbeatEstimator()
	if err := inc.ObserveUptime(3, 100); err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{4, 6} {
		if err := inc.ObserveInterruption(3, d); err != nil {
			t.Fatal(err)
		}
	}

	batch := NewHeartbeatEstimator()
	if err := batch.ObserveBatch(3, 100, 2, 10); err != nil {
		t.Fatal(err)
	}

	a, b := inc.Estimate(3), batch.Estimate(3)
	if a != b {
		t.Fatalf("batch estimate %+v != incremental %+v", b, a)
	}
	secA, intA := inc.Observed(3)
	secB, intB := batch.Observed(3)
	if secA != secB || intA != intB {
		t.Fatalf("observed (%g,%d) != (%g,%d)", secB, intB, secA, intA)
	}

	for _, bad := range []struct {
		up, down float64
		ints     int64
	}{
		{-1, 0, 0}, {0, -1, 1}, {0, 1, 0}, {1, 0, -1},
	} {
		if err := batch.ObserveBatch(3, bad.up, bad.ints, bad.down); err == nil {
			t.Fatalf("ObserveBatch(%+v) accepted", bad)
		}
	}
}
