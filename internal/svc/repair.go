package svc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// Repair scheduler tuning.
const (
	// repairConcurrency bounds how many files repair in parallel.
	repairConcurrency = 2
	// repairAttempts bounds per-file attempts within one scan.
	repairAttempts = 3
	// repairBackoff is the base delay between attempts, doubled each
	// retry.
	repairBackoff = 50 * time.Millisecond
	// repairScanTimeout bounds one whole scan.
	repairScanTimeout = 30 * time.Second
)

// StartAutoRepair begins the background re-replication scheduler:
// every interval (2s when not positive) — or immediately when the
// failure detector declares a node dead — it sweeps the namespace and
// re-replicates every under-replicated block through the engine's
// availability-aware repair path (dfs.Client.MaintainReplication
// with ADAPT weights, the same 1/E[T] scoring initial placement uses),
// with bounded concurrency and per-file retry/backoff, and collects
// orphan replicas (see RepairScan). Because a dead node kicks a scan at once,
// the interval only bounds how long a quietly degraded file (e.g. a
// degraded write) waits for repair and an orphan replica waits to be
// collected. Call at most once; Shutdown/Crash stops the loop.
func (s *NameNodeServer) StartAutoRepair(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				s.RepairScan()
			case <-s.repairKick:
				s.RepairScan()
			}
		}
	}()
}

// kickRepair requests an immediate scan (coalesced: a pending kick is
// enough).
func (s *NameNodeServer) kickRepair() {
	select {
	case s.repairKick <- struct{}{}:
	default:
	}
}

// RepairScan is the NameNode's one reconciliation pass: it sweeps every
// file once, repairing under-replicated blocks, then diffs every
// DataNode's inventory against the metadata and deletes the replicas no
// file lists (dfs.NameNode.ScrubOrphans) — what torn pipelines, writers
// that gave up or vanished, and deletes with an unreachable holder left
// behind. Replicas still leased, minted after the pass began, or copied
// by a redistribute or repair in flight are left alone. Exported so
// tests (and the headline soak) can force a scan instead of waiting on
// the ticker. It returns the number of replicas re-created.
func (s *NameNodeServer) RepairScan() int {
	s.nn.Resilience().RepairScans.Add(1)
	// Parented on the lifecycle context so Shutdown/Crash cancels an
	// in-flight scan instead of letting it run out its timeout.
	ctx, cancel := context.WithTimeout(s.lifeCtx, repairScanTimeout)
	defer cancel()
	sem := make(chan struct{}, repairConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	repaired := 0
	for _, name := range s.nn.List() {
		select {
		case <-s.stopCh:
			wg.Wait()
			return repaired
		default:
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(name string) {
			defer wg.Done()
			defer func() { <-sem }()
			n, _ := s.repairFile(ctx, name)
			mu.Lock()
			repaired += n
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	// Its only error is the scan's context ending; whatever it did not
	// reach, like an unreachable DataNode it skipped, waits for the next
	// scan.
	_, _ = s.nn.ScrubOrphans(ctx)
	s.maybeSnapshot()
	return repaired
}

// repairFile runs the availability-aware repair pass on one file with
// retry/backoff: transient failures (nodes racing down, chaos faults)
// and still-unrepairable blocks retry up to repairAttempts; a deleted
// file or a permanent error ends the attempt quietly — the next scan
// revisits anything still degraded.
func (s *NameNodeServer) repairFile(ctx context.Context, name string) (int, error) {
	repaired := 0
	backoff := repairBackoff
	for attempt := 1; ; attempt++ {
		report, err := s.cl.MaintainReplication(ctx, name, true)
		repaired += report.Repaired
		switch {
		case err == nil && report.Unrepairable == 0:
			return repaired, nil
		case errors.Is(err, dfs.ErrFileNotFound):
			return repaired, nil // deleted while scanning
		case err != nil && !dfs.IsTransient(err):
			return repaired, fmt.Errorf("svc: repair %q: %w", name, err)
		}
		if attempt >= repairAttempts {
			if err == nil {
				return repaired, nil // blocks left for the next scan
			}
			return repaired, fmt.Errorf("svc: repair %q gave up after %d attempts: %w", name, attempt, err)
		}
		select {
		case <-ctx.Done():
			return repaired, fmt.Errorf("svc: repair %q: %w", name, ctx.Err())
		case <-s.stopCh:
			return repaired, fmt.Errorf("svc: repair %q: %w", name, ErrShuttingDown)
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}
