package dfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
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
		err := nn.SetHedge(cfg)
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("SetHedge(%+v) = %v, want ErrBadConfig", cfg, err)
		} else if msg := err.Error(); !strings.Contains(msg, "hedge config") || strings.Contains(msg, "replication") {
			t.Errorf("SetHedge(%+v) error %q names the wrong subsystem", cfg, msg)
		}
	}
	if err := nn.SetHedge(HedgeConfig{}); err != nil {
		t.Fatalf("SetHedge with defaults: %v", err)
	}
}

// TestHedgerThresholdAllocatesNothing: the threshold runs on every
// hedged block read, so with a full window it selects the quantile in
// its reused scratch, allocating nothing.
func TestHedgerThresholdAllocatesNothing(t *testing.T) {
	h := newHedger(HedgeConfig{}.withDefaults())
	for i := 0; i < 3*h.cfg.Window; i++ {
		h.observe(time.Duration(i*7919%1000) * time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.threshold() }); allocs != 0 {
		t.Fatalf("threshold allocates %v times a call, want 0", allocs)
	}
}

// TestSelectNthMatchesSort: the selection returns the element a sort
// would put at every index, duplicates and runs included.
func TestSelectNthMatchesSort(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + g.Intn(140)
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(g.Intn(1 + trial%40))
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		for k := 0; k < n; k++ {
			if got := selectNth(slices.Clone(s), k); got != sorted[k] {
				t.Fatalf("trial %d: selectNth(%v, %d) = %v, want %v", trial, s, k, got, sorted[k])
			}
		}
	}
}

// stallingStore is a replica that answers a Get only once the read's
// context ends, as a networked store whose stream is cancelled does.
// Meanwhile, and for a moment after the cancel, it writes over the
// caller's spare capacity the way a chunk read into it in place does,
// and records when its Get has returned.
type stallingStore struct {
	localStore
	returned atomic.Bool
}

func (s *stallingStore) Get(ctx context.Context, id BlockID, dst []byte) (GetResult, error) {
	spare := dst[len(dst):cap(dst)]
	scribble := func(b byte) {
		for i := range spare {
			spare[i] = b
		}
	}
	scribble(0xAA)
	<-ctx.Done()
	time.Sleep(20 * time.Millisecond)
	scribble(0x55)
	s.returned.Store(true)
	return GetResult{}, ctx.Err()
}

// TestHedgedReadWaitsOutInPlacePrimary: the first fetch of a hedged
// read lands in place, in the spare capacity of the file being
// assembled. When that primary stalls, the read must neither hand back
// the backup's bytes while the primary can still write past the
// file's end, nor return on its own deadline before the primary has:
// a winning backup is appended once the primary has returned, so the
// bytes come back exact, and a read that times out returns only after
// it. Run under -race, which sees any write the read does not wait for.
func TestHedgedReadWaitsOutInPlacePrimary(t *testing.T) {
	block := bytes.Repeat([]byte("hedged block bytes "), 200)
	prefix := []byte("the blocks before it")
	for _, tc := range []struct {
		name     string
		replicas []cluster.NodeID // node 0 stalls, node 1 serves
		timeout  time.Duration
	}{
		{"backup wins", []cluster.NodeID{0, 1}, 10 * time.Second},
		{"read times out", []cluster.NodeID{0}, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stall := &stallingStore{localStore: localStore{NewDataNode(0)}}
			fast := localStore{NewDataNode(1)}
			if err := fast.dn.Put(1, block); err != nil {
				t.Fatal(err)
			}
			io := NewBlockIO([]BlockStore{stall, fast})
			if err := io.SetHedge(HedgeConfig{MinDelay: 5 * time.Millisecond, Window: 1, MinSamples: 1}); err != nil {
				t.Fatal(err)
			}
			io.hedge.Load().observe(time.Millisecond)
			bm := BlockMeta{ID: 1, File: "f", Size: int64(len(block)), Replicas: tc.replicas, Checksum: Checksum(block)}
			dst := append(make([]byte, 0, len(prefix)+len(block)), prefix...)

			ctx, cancel := context.WithTimeout(context.Background(), tc.timeout)
			defer cancel()
			got, err := io.appendBlock(ctx, bm, dst)
			if !stall.returned.Load() {
				t.Fatal("the hedged read returned before its in-place fetch did")
			}
			if len(tc.replicas) == 1 {
				if !errors.Is(err, ErrNoReplica) {
					t.Fatalf("read past its deadline: err = %v, want ErrNoReplica", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(slices.Clone(prefix), block...)) {
				t.Fatal("the backup's bytes came back damaged, or the prefix did")
			}
			if r := io.Resilience().Snapshot(); r.HedgedReads != 1 || r.HedgeWins != 1 {
				t.Fatalf("resilience %+v, want one hedged read and its win", r)
			}
		})
	}
}
