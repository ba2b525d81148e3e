package dfs

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
)

// Hedged reads: when a block fetch takes longer than a quantile-
// tracked latency threshold, a backup fetch is launched on the next
// replica in the block's availability-ordered list (the 1/E[T]
// ordering placement wrote), and the first finisher wins. Losers are
// cancelled through their context, which aborts blocked stream I/O on
// the networked stores. This is redundant assignment with
// first-finisher-wins (Behrouzi-Far & Soljanin) applied to the DFS
// read path — it converts a gray node's 10-100x service latency into
// one threshold delay instead of one deadline.
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

// hedgeResult is one replica fetch's outcome.
type hedgeResult struct {
	data    []byte
	err     error
	node    cluster.NodeID
	hedged  bool
	inPlace bool // data is dst extended: the fetch read into dst's spare capacity
	took    time.Duration
}

// readBlockHedged is the hedged counterpart of the sequential replica
// loop in appendBlock: the primary fetch starts immediately, a
// backup starts on the next live replica once the threshold passes,
// and whichever verified copy lands first wins. Fetch errors trigger
// immediate failover to the next candidate (no threshold wait), so
// hedging strictly dominates the sequential loop on latency.
//
// The block lands in place as the sequential ladder's does: one fetch
// at a time — the first, and after a failure the next failover — reads
// into dst's spare capacity, and when it wins its extended slice is
// the result, with no copy. Every other fetch reads into a buffer of
// its own. A backup that wins is appended to dst only after the fetches
// are cancelled and the in-place one has returned, since until then it
// may still be writing dst's spare capacity; and no path returns before
// the in-place fetch has, so the caller never gets dst back while a
// fetch can still write past its end.
func (b *BlockIO) readBlockHedged(ctx context.Context, h *hedger, bm BlockMeta, dst []byte) ([]byte, error) {
	live := make([]cluster.NodeID, 0, len(bm.Replicas))
	for _, r := range bm.Replicas {
		if b.stores[r].Up() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: block %d of %q", ErrNoReplica, bm.ID, bm.File)
	}

	// One cancellation scope for every fetch: settle aborts the losers,
	// whose blocked stream I/O the networked stores poison through this
	// context, and waits out the in-place one. Every fetch sends exactly
	// one result into the buffered channel, so none ever blocks there.
	fctx, cancelAll := context.WithCancel(ctx)
	results := make(chan hedgeResult, len(live))
	inPlace := false // a fetch is reading into dst's spare capacity
	settle := func() {
		cancelAll()
		for inPlace {
			if r := <-results; r.inPlace {
				inPlace = false
			}
		}
	}
	defer settle()

	next, outstanding, hedges := 0, 0, 0
	start := func(hedged bool) bool {
		if next >= len(live) {
			return false
		}
		node := live[next]
		next++
		outstanding++
		if hedged {
			hedges++
			b.counters.HedgedReads.Add(1)
		}
		var into []byte // nil: a buffer of the fetch's own
		own := !inPlace
		if own {
			into, inPlace = dst, true
		}
		go func() {
			//lint:ignore determinism hedge latency tracking times real socket reads; simulated paths never enable hedging
			begin := time.Now()
			data, err := b.stores[node].Get(fctx, bm.ID, into)
			//lint:ignore determinism hedge latency tracking times real socket reads; simulated paths never enable hedging
			results <- hedgeResult{data: data, err: err, node: node, hedged: hedged, inPlace: own, took: time.Since(begin)}
		}()
		return true
	}
	start(false)

	// The hedge timer arms only when a threshold exists (enough
	// samples) and a backup candidate exists.
	var hedgeC <-chan time.Time
	if thr, ok := h.threshold(); ok && len(live) > 1 {
		tm := time.NewTimer(thr)
		defer tm.Stop()
		hedgeC = tm.C
	}

	var lastErr error
	var refused refusals
	for {
		select {
		case r := <-results:
			outstanding--
			block := r.data
			if r.inPlace {
				inPlace = false
				if r.err == nil {
					block = r.data[len(dst):]
				}
			}
			if r.err == nil {
				if crc32.ChecksumIEEE(block) == bm.Checksum {
					h.observe(r.took)
					if r.hedged {
						b.counters.HedgeWins.Add(1)
					} else if hedges > 0 {
						b.counters.HedgeLosses.Add(1)
					}
					if r.inPlace {
						return r.data, nil
					}
					settle()
					return append(dst, block...), nil
				}
				b.counters.ChecksumFailures.Add(1)
				r.err = fmt.Errorf("%w: block %d replica on node %d", ErrChecksum, bm.ID, r.node)
			} else if errors.Is(r.err, ErrNodeDown) {
				b.counters.NodeDownErrors.Add(1)
			}
			lastErr = r.err
			refused.note(r.err)
			// Failover: a failed fetch immediately tries the next
			// candidate, independent of the hedge threshold.
			if start(false) {
				b.counters.ReadFailovers.Add(1)
			} else if outstanding == 0 {
				return nil, noReplica(bm, refused, lastErr)
			}
		case <-hedgeC:
			hedgeC = nil
			start(true)
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: block %d of %q (last error: %v)", ErrNoReplica, bm.ID, bm.File, ctx.Err())
		}
	}
}
