package svc

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/stats"
)

// Client-side per-node circuit breakers. The NameNode's remoteStore
// proxies already classify transport failures (dial refused, severed
// stream, partition) as dfs.ErrNodeDown; the breaker sits under that
// classification and converts a *run* of such failures into a fast-
// fail window, so a gray or dead DataNode costs one deadline per
// cooldown instead of one deadline per request. States:
//
//	Closed    — healthy; consecutive transport failures are counted.
//	Open      — Threshold consecutive failures tripped it; every call
//	            fast-fails (and Up() reports false, so the replica
//	            ordering routes around the node) until the cooldown
//	            expires.
//	HalfOpen  — cooldown over; one call at a time is admitted as a
//	            probe. Its success closes the breaker, a failed
//	            probe re-opens it for another cooldown.
//
// The cooldown is widened by up to breakerJitter of itself, drawn from
// a seeded stats.RNG, so soaks replay probe schedules deterministically
// under a fixed seed and a fleet of breakers opened by the same
// partition does not probe in lockstep.

// BreakerConfig tunes the per-node breakers. The zero value disables
// them (every call admitted), preserving historical behavior.
type BreakerConfig struct {
	// Threshold is the consecutive transport-failure count that opens
	// the breaker. <= 0 disables breakers entirely.
	Threshold int
	// Cooldown is the base open duration before half-open probing.
	// Default 500ms.
	Cooldown time.Duration
}

// breakerJitter widens each cooldown by a uniform draw in
// [0, breakerJitter*Cooldown) from the seeded RNG.
const breakerJitter = 0.2

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	return c
}

// BreakerStats aggregates transitions and fast-fails across a fleet
// of breakers (one NameNode's stores share one block), for /metrics.
type BreakerStats struct {
	// Opens counts Closed/HalfOpen -> Open transitions.
	Opens atomic.Int64
	// Closes counts HalfOpen -> Closed recoveries.
	Closes atomic.Int64
	// FastFails counts calls rejected without touching the wire
	// because the breaker was open.
	FastFails atomic.Int64
}

type breakerState int

// Breaker states, exported on /metrics as numeric gauges.
const (
	BreakerClosed breakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// breaker is one node's circuit breaker. A nil *breaker admits
// everything, so disabled configurations cost one nil check.
type breaker struct {
	cfg   BreakerConfig
	stats *BreakerStats
	now   func() time.Time // injectable clock for the property tests

	mu        sync.Mutex
	g         *stats.RNG // seeded: probe schedules replay under a fixed seed
	state     breakerState
	fails     int       // consecutive transport failures while closed
	openUntil time.Time // end of the current cooldown
	probing   bool      // a probe is in flight while half-open
}

// newBreaker builds one breaker, or nil when cfg disables them. g must
// be an owned (Split) RNG; stats may be shared across breakers.
func newBreaker(cfg BreakerConfig, g *stats.RNG, st *BreakerStats) *breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if st == nil {
		st = &BreakerStats{}
	}
	//lint:ignore determinism breaker cooldowns are wall-clock windows over real sockets; the seeded jitter keeps probe schedules replayable
	return &breaker{cfg: cfg.withDefaults(), stats: st, g: g, now: time.Now}
}

// cooldown draws the next jittered open window.
func (b *breaker) cooldown() time.Duration {
	d := b.cfg.Cooldown
	return d + time.Duration(b.g.Float64()*breakerJitter*float64(d))
}

// admit decides whether a call may touch the wire. probe marks calls
// the half-open state is auditioning; the caller must hand it back to
// record. A nil breaker admits everything.
func (b *breaker) admit() (probe, ok bool) {
	if b == nil {
		return false, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, true
	case BreakerOpen:
		if b.now().Before(b.openUntil) {
			b.stats.FastFails.Add(1)
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	default: // BreakerHalfOpen
		if b.probing {
			b.stats.FastFails.Add(1)
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// record feeds one call's transport outcome back. ok means the wire
// worked (including calls the peer answered with its own error —
// the node is alive); !ok is a transport-layer failure.
func (b *breaker) record(probe, ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if ok {
		if b.state == BreakerHalfOpen {
			b.state = BreakerClosed
			b.stats.Closes.Add(1)
		}
		b.fails = 0
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		// A failed probe re-opens for a fresh jittered cooldown.
		b.state = BreakerOpen
		b.openUntil = b.now().Add(b.cooldown())
		b.stats.Opens.Add(1)
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.state = BreakerOpen
			b.openUntil = b.now().Add(b.cooldown())
			b.stats.Opens.Add(1)
		}
	}
}

// forget releases a probe slot without judging the outcome — for
// calls the caller itself cancelled (hedge losers, abandoned
// operations), which prove nothing about the node's health.
func (b *breaker) forget(probe bool) {
	if b == nil || !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// blocked reports whether the breaker is open with cooldown remaining
// — the read the replica ordering uses to route around the node
// without mutating breaker state.
func (b *breaker) blocked() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerOpen && b.now().Before(b.openUntil)
}

// State returns the current state for metrics export.
func (b *breaker) State() breakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
