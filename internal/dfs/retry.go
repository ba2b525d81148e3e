package dfs

import (
	"context"
	"errors"
	"time"
)

// RetryPolicy bounds how client operations retry transient failures:
// up to MaxAttempts tries separated by exponential backoff starting at
// BaseDelay and capped at MaxDelay. The zero value means "no retries"
// (a single attempt); DefaultRetryPolicy is what NewClient installs.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try
	// included). Values < 1 behave as 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles on
	// every subsequent retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means uncapped.
	MaxDelay time.Duration
	// Sleep replaces time.Sleep, letting tests and simulations run
	// backoff in virtual time. nil uses time.Sleep.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the client default: 4 attempts, 1 ms initial
// backoff capped at 50 ms — sized for the in-memory model, where a
// "node rejoin" is another goroutine flipping SetUp.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before retry number retry (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < retry; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// wait sleeps the backoff for retry number retry (1-based), giving up
// early when the context is cancelled or its deadline passes. It
// returns the context's error in that case and nil after a full
// backoff. A context with no deadline preserves the historical
// count-based semantics exactly: the wait always completes.
func (p RetryPolicy) wait(ctx context.Context, retry int) error {
	d := p.backoff(retry)
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		// Virtual-time waits run to completion (tests and simulations
		// drive the clock); cancellation is observed at the boundary.
		p.Sleep(d)
		return ctx.Err()
	}
	// A context with no deadline has a nil Done channel, which blocks
	// forever in select, so the timer path preserves the historical
	// count-based semantics exactly while staying cancellable.
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// IsTransient classifies an error from the dfs layer: transient errors
// may succeed if retried (a node may rejoin, a corrupted read may pass
// on another replica), permanent errors will not. Errors exposing a
// Transient() bool method (e.g. chaos-injected faults) classify
// themselves; otherwise the dfs sentinels decide.
func IsTransient(err error) bool {
	var te interface{ Transient() bool }
	if errors.As(err, &te) {
		return te.Transient()
	}
	return errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrNoReplica) ||
		errors.Is(err, ErrNoLiveNodes) ||
		errors.Is(err, ErrLeaseExpired) ||
		errors.Is(err, ErrOverload)
}

// WriteReport describes how a file write fared under failures: the
// replication actually achieved per block and how much failover/retry
// work it took. A fully healthy write has MinReplication ==
// TargetReplication and zero DegradedBlocks.
type WriteReport struct {
	// Blocks is the number of blocks written.
	Blocks int
	// TargetReplication is the requested replication degree.
	TargetReplication int
	// MinReplication is the lowest replica count achieved by any
	// block (0 only if Blocks is 0).
	MinReplication int
	// DegradedBlocks counts blocks that achieved fewer than
	// TargetReplication replicas.
	DegradedBlocks int
	// Failovers counts replicas diverted to alternate live nodes
	// after a placed holder rejected the write.
	Failovers int
	// Retries counts backoff rounds spent waiting for any node to
	// accept a block.
	Retries int
}

// Degraded reports whether any block is below target replication.
func (r WriteReport) Degraded() bool { return r.DegradedBlocks > 0 }
