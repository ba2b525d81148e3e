package svc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/adaptsim/adapt/internal/dfs"
)

// Server-side adaptive admission control: a per-endpoint concurrency
// budget with a bounded wait queue and brownout degradation. Under
// overload the server answers immediately with dfs.ErrOverload (wire
// code "overload", transient) instead of queueing into collapse, and
// it sheds background traffic — rebalance, repair, stat, inventory —
// before it sheds puts and gets, so the data plane browns out last.
//
// Heartbeats are control-plane and never shed: gray-failure detection
// and (λ, μ) estimation must keep working precisely when the cluster
// is drowning.

// rpcClass buckets RPC methods for admission purposes.
type rpcClass int

const (
	// classControl is never shed and never counted: heartbeats and
	// other tiny control messages that keep the cluster observable.
	classControl rpcClass = iota
	// classPut and classGet are the data plane: they own the
	// concurrency budget and the wait queue.
	classPut
	classGet
	// classBackground is everything sheddable first: rebalance,
	// repair, stat, list, inventory, consistency sweeps. Brownout
	// rejects these while the budget still has headroom for data ops.
	classBackground
)

func (c rpcClass) String() string {
	switch c {
	case classControl:
		return "control"
	case classPut:
		return "put"
	case classGet:
		return "get"
	}
	return "background"
}

// AdmissionConfig bounds a server's concurrent request processing.
// The zero value disables admission control entirely (every request
// admitted), preserving the historical behavior.
type AdmissionConfig struct {
	// MaxInflight is the concurrency budget: at most this many
	// admitted requests run at once (control-plane traffic is not
	// counted). <= 0 disables admission control.
	MaxInflight int
	// Queue bounds how many requests may wait for a slot before
	// arrivals are shed. Default (0) is 4x MaxInflight. Queued
	// requests wait at most their own deadline budget; a request whose
	// budget expires in the queue is shed, not timed out silently.
	Queue int
	// BrownoutPct is the budget utilization (percent of MaxInflight)
	// at which background traffic is shed on arrival, keeping the
	// remaining headroom for puts and gets. Default 75. 100 sheds
	// background only when the budget is fully saturated.
	BrownoutPct int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxInflight
	}
	if c.BrownoutPct <= 0 {
		c.BrownoutPct = 75
	}
	if c.BrownoutPct > 100 {
		c.BrownoutPct = 100
	}
	return c
}

// AdmissionStats is the live counter block of one admission
// controller, exported on /metrics.
type AdmissionStats struct {
	// Admitted counts requests that acquired a slot (queued or not).
	Admitted atomic.Int64
	// QueueWaits counts admitted requests that had to queue first.
	QueueWaits atomic.Int64
	// ShedQueueFull counts arrivals shed because the wait queue was at
	// capacity.
	ShedQueueFull atomic.Int64
	// ShedBrownout counts background arrivals shed by the brownout
	// threshold while the budget still had data-plane headroom.
	ShedBrownout atomic.Int64
	// ShedExpired counts queued requests whose deadline budget ran out
	// before a slot freed.
	ShedExpired atomic.Int64
}

// Shed is the total over every shed reason.
func (s *AdmissionStats) Shed() int64 {
	return s.ShedQueueFull.Load() + s.ShedBrownout.Load() + s.ShedExpired.Load()
}

// admWaiter is one queued request. ch is buffered so a grant can never
// block; gone marks a waiter that gave up (its queue entry is skipped
// at grant time).
type admWaiter struct {
	ch   chan struct{}
	gone bool
}

// admission is the controller: a counting semaphore with a FIFO
// bounded wait queue. Slots are handed over directly from releaser to
// waiter (inflight never dips), so the queue drains in order with no
// thundering herd.
type admission struct {
	max        int
	queueCap   int
	brownoutAt int

	stats AdmissionStats

	mu       sync.Mutex
	inflight int
	queued   int
	q        []*admWaiter
}

// newAdmission builds a controller, or nil when cfg disables one.
func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.MaxInflight <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	return &admission{
		max:        cfg.MaxInflight,
		queueCap:   cfg.Queue,
		brownoutAt: (cfg.MaxInflight*cfg.BrownoutPct + 99) / 100, // utilisation ≥ pct, rounded up
	}
}

// acquire admits one request of the given class, blocking in the
// bounded queue when the budget is saturated. It returns the release
// func on admission and a dfs.ErrOverload-wrapped error when the
// request is shed. A nil *admission admits everything.
func (a *admission) acquire(ctx context.Context, class rpcClass) (func(), error) {
	if a == nil || class == classControl {
		return func() {}, nil
	}
	a.mu.Lock()
	if inflight := a.inflight; class == classBackground && inflight >= a.brownoutAt {
		a.mu.Unlock()
		a.stats.ShedBrownout.Add(1)
		return nil, fmt.Errorf("%w: brownout at %d/%d inflight sheds %s traffic", dfs.ErrOverload, inflight, a.max, class)
	}
	if a.inflight < a.max {
		a.inflight++
		a.mu.Unlock()
		a.stats.Admitted.Add(1)
		return a.release, nil
	}
	if a.queued >= a.queueCap {
		a.mu.Unlock()
		a.stats.ShedQueueFull.Add(1)
		return nil, fmt.Errorf("%w: %d inflight and %d queued", dfs.ErrOverload, a.max, a.queueCap)
	}
	w := &admWaiter{ch: make(chan struct{}, 1)}
	a.q = append(a.q, w)
	a.queued++
	a.mu.Unlock()
	a.stats.QueueWaits.Add(1)

	select {
	case <-w.ch:
		a.stats.Admitted.Add(1)
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ch:
			// The grant raced the cancellation; the slot is ours and the
			// caller decides what its dead context means.
			a.mu.Unlock()
			a.stats.Admitted.Add(1)
			return a.release, nil
		default:
			w.gone = true
			a.queued--
			a.mu.Unlock()
			a.stats.ShedExpired.Add(1)
			return nil, fmt.Errorf("%w: deadline budget spent queueing: %v", dfs.ErrOverload, ctx.Err())
		}
	}
}

// release frees one slot, handing it to the oldest live waiter if any
// (inflight stays constant across a handover).
func (a *admission) release() {
	a.mu.Lock()
	for len(a.q) > 0 {
		w := a.q[0]
		a.q = a.q[1:]
		if w.gone {
			continue
		}
		a.queued--
		w.ch <- struct{}{} // buffered: never blocks
		a.mu.Unlock()
		return
	}
	a.inflight--
	a.mu.Unlock()
}

// QueueDepth is the current number of queued (live) waiters.
func (a *admission) QueueDepth() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// Inflight is the current number of admitted requests.
func (a *admission) Inflight() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// Stats exposes the counter block (nil-safe: a disabled controller
// reports nothing).
func (a *admission) Stats() *AdmissionStats {
	if a == nil {
		return nil
	}
	return &a.stats
}
