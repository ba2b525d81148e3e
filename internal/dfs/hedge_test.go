package dfs

import (
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
)

// TestHedgerThresholdQuantileMath pins the threshold arithmetic: with
// 16 observed latencies 10..160ms and quantile 0.95, the anchor is
// window[int(0.95*15)] = window[14] = 150ms, scaled by the multiplier.
func TestHedgerThresholdQuantileMath(t *testing.T) {
	h := newHedger(HedgeConfig{
		Quantile:   0.95,
		Multiplier: 2,
		MinDelay:   time.Millisecond,
		Window:     64,
		MinSamples: 16,
	}.withDefaults())
	// Observed out of order: the quantile sorts its window copy.
	for _, ms := range []int{80, 10, 160, 40, 120, 30, 150, 60, 100, 20, 140, 50, 110, 70, 130, 90} {
		h.observe(time.Duration(ms) * time.Millisecond)
	}
	thr, ok := h.threshold()
	if !ok {
		t.Fatal("threshold not ready after MinSamples observations")
	}
	if want := 300 * time.Millisecond; thr != want {
		t.Fatalf("threshold = %v, want %v (2 x 150ms)", thr, want)
	}
}

func TestHedgerThresholdFloorsAtMinDelay(t *testing.T) {
	h := newHedger(HedgeConfig{
		Quantile:   0.95,
		Multiplier: 2,
		MinDelay:   25 * time.Millisecond,
		Window:     32,
		MinSamples: 4,
	}.withDefaults())
	for i := 0; i < 8; i++ {
		h.observe(time.Millisecond) // 2x1ms is far below the floor
	}
	thr, ok := h.threshold()
	if !ok {
		t.Fatal("threshold not ready")
	}
	if thr != 25*time.Millisecond {
		t.Fatalf("threshold = %v, want the 25ms floor", thr)
	}
}

func TestHedgerNotReadyBeforeMinSamples(t *testing.T) {
	h := newHedger(HedgeConfig{MinSamples: 8}.withDefaults())
	for i := 0; i < 7; i++ {
		h.observe(10 * time.Millisecond)
	}
	if _, ok := h.threshold(); ok {
		t.Fatal("threshold ready below MinSamples: reads would hedge on noise")
	}
	h.observe(10 * time.Millisecond)
	if _, ok := h.threshold(); !ok {
		t.Fatal("threshold not ready at MinSamples")
	}
}

// TestHedgerWindowSlides: old outliers age out of the ring, so the
// threshold tracks current latency, not history.
func TestHedgerWindowSlides(t *testing.T) {
	h := newHedger(HedgeConfig{
		Quantile:   0.5,
		Multiplier: 2,
		MinDelay:   time.Millisecond,
		Window:     8,
		MinSamples: 8,
	}.withDefaults())
	for i := 0; i < 8; i++ {
		h.observe(time.Second) // a bad era
	}
	for i := 0; i < 8; i++ {
		h.observe(10 * time.Millisecond) // fully displaces it
	}
	thr, ok := h.threshold()
	if !ok {
		t.Fatal("threshold not ready")
	}
	if thr != 20*time.Millisecond {
		t.Fatalf("threshold = %v, want 20ms: the second era must fully displace the first", thr)
	}
}

func TestSetHedgeValidation(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 2))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := []HedgeConfig{
		{Quantile: 1.2},   // quantile outside (0, 1)
		{Quantile: -0.5},  // negative quantile
		{Multiplier: 0.5}, // hedging earlier than the quantile itself
		{Window: -1},      // negative window
		{MinSamples: -3},  // negative sample floor
	}
	for _, cfg := range bad {
		if err := nn.SetHedge(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("SetHedge(%+v) = %v, want ErrBadConfig", cfg, err)
		}
	}
	if err := nn.SetHedge(HedgeConfig{}); err != nil {
		t.Fatalf("SetHedge with defaults: %v", err)
	}
}
