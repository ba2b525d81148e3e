package dfs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Hedged reads: when one step of a block read's replica ladder
// (appendBlock) outlasts a quantile-tracked latency threshold, one
// backup fetch starts on the next live replica in the block's
// availability-ordered list (the 1/E[T] ordering placement wrote), and
// the first verified copy wins, cancelling the other through their
// shared context, which aborts blocked stream I/O on the networked
// stores. This is redundant assignment with first-finisher-wins
// (Behrouzi-Far & Soljanin) applied to the DFS read path — it converts
// a gray node's 10-100x service latency into one threshold delay
// instead of one deadline. The hedge is one timer per step, stopped if
// the step's own fetch returns first; a block read starts at most one
// backup, and a fetch that fails while it is in flight waits for it
// rather than starting a third.
//
// The threshold adapts: it is Multiplier x the tracked Quantile of
// recent read latencies, floored at MinDelay. On a hazard-free fast
// cluster the quantile sits far below the floor and reads virtually
// never hedge; only genuine stragglers pay for a backup.

// HedgeConfig tunes hedged reads. Enable with NameNode.SetHedge; the
// zero value of each field takes the documented default.
type HedgeConfig struct {
	// Quantile of the latency window that anchors the hedge threshold.
	// Default 0.95. Must be in (0, 1).
	Quantile float64
	// Multiplier scales the tracked quantile into the threshold.
	// Default 2. Must be >= 1 when set.
	Multiplier float64
	// MinDelay floors the threshold so tightly-clustered fast reads
	// (loopback, warm caches) never hedge on noise. Default 20ms.
	MinDelay time.Duration
	// Window is how many recent read latencies the quantile tracks.
	// Default 128.
	Window int
	// MinSamples is how many latencies must be observed before reads
	// hedge at all. Default 16.
	MinSamples int
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Quantile == 0 {
		c.Quantile = 0.95
	}
	if c.Multiplier == 0 {
		c.Multiplier = 2
	}
	if c.MinDelay == 0 {
		c.MinDelay = 20 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 128
	}
	if c.MinSamples == 0 {
		c.MinSamples = 16
	}
	return c
}

// hedger tracks read latencies in a ring and derives the hedge
// threshold from their quantile.
type hedger struct {
	cfg HedgeConfig

	mu      sync.Mutex
	ring    []time.Duration
	scratch []time.Duration // the window threshold selects in, reused
	n       int             // total latencies ever observed
}

func newHedger(cfg HedgeConfig) *hedger {
	return &hedger{cfg: cfg, ring: make([]time.Duration, cfg.Window), scratch: make([]time.Duration, cfg.Window)}
}

// observe records one successful read's latency.
func (h *hedger) observe(d time.Duration) {
	h.mu.Lock()
	h.ring[h.n%len(h.ring)] = d
	h.n++
	h.mu.Unlock()
}

// threshold returns the current hedge delay; ok is false until
// MinSamples latencies have been observed. It runs on every hedged
// block read, so it allocates nothing: the quantile is selected in a
// copy of the window kept in the tracker's reused scratch slice.
func (h *hedger) threshold() (time.Duration, bool) {
	h.mu.Lock()
	if h.n < h.cfg.MinSamples {
		h.mu.Unlock()
		return 0, false
	}
	k := min(h.n, len(h.ring))
	window := h.scratch[:k]
	copy(window, h.ring[:k])
	q := selectNth(window, int(h.cfg.Quantile*float64(k-1)))
	h.mu.Unlock()

	return max(time.Duration(h.cfg.Multiplier*float64(q)), h.cfg.MinDelay), true
}

// selectNth returns the value sorting s would put at index k,
// reordering s in place (Hoare's selection: expected linear time).
func selectNth(s []time.Duration, k int) time.Duration {
	lo, hi := 0, len(s)-1
	for lo < hi {
		pivot := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] <= pivot <= s[i..hi], and everything between is the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// SetHedge enables hedged reads on this mover's block read path.
// Safe to call concurrently with reads (the pointer is swapped
// atomically); a second call replaces the tracker and its window.
func (b *BlockIO) SetHedge(cfg HedgeConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Quantile <= 0 || cfg.Quantile >= 1 {
		return fmt.Errorf("%w: hedge quantile %v outside (0, 1)", ErrBadConfig, cfg.Quantile)
	}
	if cfg.Multiplier < 1 {
		return fmt.Errorf("%w: hedge multiplier %v < 1", ErrBadConfig, cfg.Multiplier)
	}
	if cfg.Window < 1 || cfg.MinSamples < 1 {
		return fmt.Errorf("%w: hedge window %d / min samples %d must be positive", ErrBadConfig, cfg.Window, cfg.MinSamples)
	}
	b.hedge.Store(newHedger(cfg))
	return nil
}

// SetHedge enables hedged reads on the NameNode's own block mover.
func (nn *NameNode) SetHedge(cfg HedgeConfig) error { return nn.io.SetHedge(cfg) }

// backup is the outcome of a hedged step's one backup fetch: the next
// live replica after the step's, read into a buffer of its own on the
// hedge timer's goroutine. done is released once the fetch returns.
type backup struct {
	index int // the replica's index in the block's list
	done  sync.WaitGroup
	data  []byte
	err   error
	took  time.Duration
}

// fetchHedged is one step of the replica ladder with hedging on: it
// fetches replica i in place on the caller's goroutine. When mayHedge,
// the threshold is known and another live replica follows, it arms one
// timer, and only if that fires before the fetch returns does the
// backup start, sharing the step's cancel scope, so whichever copy
// verifies first cancels the other. A winning backup is appended to dst
// only once the in-place fetch has returned, since until then that may
// still be writing dst's spare capacity; a failed fetch waits for the
// backup rather than starting a third. The winner's latency feeds the
// window. When both fetches fail, bk is the backup, holding its error.
func (b *BlockIO) fetchHedged(ctx context.Context, h *hedger, bm BlockMeta, i int, dst []byte, mayHedge bool) (data []byte, bk *backup, err error) {
	fctx := ctx
	var timer *time.Timer
	if thr, ok := h.threshold(); ok && mayHedge {
		if j := b.nextLive(bm, i); j >= 0 {
			k := &backup{index: j}
			sctx, cancel := context.WithCancel(ctx)
			defer cancel()
			k.done.Add(1)
			timer = time.AfterFunc(thr, func() {
				defer k.done.Done()
				b.counters.HedgedReads.Add(1)
				//lint:ignore determinism hedge latency tracking times real socket reads; simulated paths never enable hedging
				begin := time.Now()
				k.data, k.err = b.fetch(sctx, bm, bm.Replicas[j], nil)
				//lint:ignore determinism hedge latency tracking times real socket reads; simulated paths never enable hedging
				k.took = time.Since(begin)
				if k.err == nil {
					cancel()
				}
			})
			fctx, bk = sctx, k
		}
	}
	//lint:ignore determinism hedge latency tracking times real socket reads; simulated paths never enable hedging
	begin := time.Now()
	data, err = b.fetch(fctx, bm, bm.Replicas[i], dst)
	//lint:ignore determinism hedge latency tracking times real socket reads; simulated paths never enable hedging
	took := time.Since(begin)
	if timer != nil && timer.Stop() {
		bk = nil // the backup never started
	}
	if err == nil {
		h.observe(took)
		if bk != nil {
			b.counters.HedgeLosses.Add(1)
		}
		return data, nil, nil
	}
	if bk == nil {
		return nil, nil, err
	}
	bk.done.Wait()
	if bk.err != nil {
		return nil, bk, err
	}
	h.observe(bk.took)
	b.counters.HedgeWins.Add(1)
	return append(dst, bk.data...), nil, nil
}

// nextLive returns the index of the first live replica of bm after
// index i, or -1 when none is.
func (b *BlockIO) nextLive(bm BlockMeta, i int) int {
	for j := i + 1; j < len(bm.Replicas); j++ {
		if b.stores[bm.Replicas[j]].Up() {
			return j
		}
	}
	return -1
}
