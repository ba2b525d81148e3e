package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ResilienceCounters aggregates the fault-handling activity of the DFS
// layer under churn: retries, replica failovers, checksum rejections,
// degraded writes, repairs, and (when a chaos injector is attached)
// the faults injected. All fields are atomic so the counters can be
// shared by every client, DataNode, and the chaos engine without
// additional locking.
type ResilienceCounters struct {
	// ReadRetries counts whole-operation retry rounds on the read
	// path (backoff expired and the operation was attempted again).
	ReadRetries atomic.Int64
	// ReadFailovers counts replica-to-replica failovers during block
	// reads (a replica failed and the next one was tried).
	ReadFailovers atomic.Int64
	// WriteFailovers counts block writes diverted to an alternate
	// live node after a placed holder rejected the replica.
	WriteFailovers atomic.Int64
	// WriteRetries counts backoff rounds on the write path.
	WriteRetries atomic.Int64
	// DegradedWrites counts blocks written below their target
	// replication because too few live nodes accepted replicas.
	DegradedWrites atomic.Int64
	// ChecksumFailures counts block reads rejected because the bytes
	// did not match their CRC32C: a chunk's on the wire, or the
	// block's.
	ChecksumFailures atomic.Int64
	// NodeDownErrors counts operations rejected by a down DataNode.
	NodeDownErrors atomic.Int64
	// RepairedReplicas counts replicas re-created by replication
	// maintenance.
	RepairedReplicas atomic.Int64
	// UnrepairableBlocks counts maintenance passes over blocks whose
	// every holder was down.
	UnrepairableBlocks atomic.Int64
	// RedistributedReplicas counts replicas moved by adapt/rebalance.
	RedistributedReplicas atomic.Int64
	// InjectedFaults counts transient operation faults injected by a
	// chaos fault injector.
	InjectedFaults atomic.Int64
	// InjectedCorruptions counts bit-flips injected on the read path.
	InjectedCorruptions atomic.Int64
	// InjectedLatencyNanos accumulates chaos-injected latency.
	InjectedLatencyNanos atomic.Int64
	// RepairScans counts background re-replication scans started by
	// the auto-repair scheduler.
	RepairScans atomic.Int64
	// NodesDeclaredDead counts failure-detector promotions to dead
	// (each one marks the node's store down and triggers repair).
	NodesDeclaredDead atomic.Int64
	// SpeculativeAttempts counts duplicate task executions launched by
	// the MapReduce engine's speculation policy.
	SpeculativeAttempts atomic.Int64
	// CancelledAttempts counts losing duplicate attempts cancelled
	// because a sibling finished first.
	CancelledAttempts atomic.Int64
	// WastedComputeNanos accumulates the (simulated) execution time
	// consumed by cancelled losing attempts — observable speculation
	// waste.
	WastedComputeNanos atomic.Int64
	// PrunedReplicas counts surplus replicas retired because a block
	// held more live replicas than its file's replication.
	PrunedReplicas atomic.Int64
	// HedgedReads counts backup block fetches launched because the
	// primary outlived the hedge threshold.
	HedgedReads atomic.Int64
	// HedgeWins counts hedged reads where the backup finished first.
	HedgeWins atomic.Int64
	// HedgeLosses counts hedged reads where the primary still won.
	HedgeLosses atomic.Int64
}

// ResilienceSnapshot is a plain-value copy of the counters, safe to
// compare, print, or serialize.
type ResilienceSnapshot struct {
	ReadRetries           int64
	ReadFailovers         int64
	WriteFailovers        int64
	WriteRetries          int64
	DegradedWrites        int64
	ChecksumFailures      int64
	NodeDownErrors        int64
	RepairedReplicas      int64
	UnrepairableBlocks    int64
	RedistributedReplicas int64
	InjectedFaults        int64
	InjectedCorruptions   int64
	InjectedLatency       time.Duration
	RepairScans           int64
	NodesDeclaredDead     int64
	SpeculativeAttempts   int64
	CancelledAttempts     int64
	WastedCompute         time.Duration
	PrunedReplicas        int64
	HedgedReads           int64
	HedgeWins             int64
	HedgeLosses           int64
}

// Snapshot returns a consistent-enough point-in-time copy (each field
// is read atomically; the set is not a single linearizable snapshot,
// which is fine for reporting).
func (c *ResilienceCounters) Snapshot() ResilienceSnapshot {
	return ResilienceSnapshot{
		ReadRetries:           c.ReadRetries.Load(),
		ReadFailovers:         c.ReadFailovers.Load(),
		WriteFailovers:        c.WriteFailovers.Load(),
		WriteRetries:          c.WriteRetries.Load(),
		DegradedWrites:        c.DegradedWrites.Load(),
		ChecksumFailures:      c.ChecksumFailures.Load(),
		NodeDownErrors:        c.NodeDownErrors.Load(),
		RepairedReplicas:      c.RepairedReplicas.Load(),
		UnrepairableBlocks:    c.UnrepairableBlocks.Load(),
		RedistributedReplicas: c.RedistributedReplicas.Load(),
		InjectedFaults:        c.InjectedFaults.Load(),
		InjectedCorruptions:   c.InjectedCorruptions.Load(),
		InjectedLatency:       time.Duration(c.InjectedLatencyNanos.Load()),
		RepairScans:           c.RepairScans.Load(),
		NodesDeclaredDead:     c.NodesDeclaredDead.Load(),
		SpeculativeAttempts:   c.SpeculativeAttempts.Load(),
		CancelledAttempts:     c.CancelledAttempts.Load(),
		WastedCompute:         time.Duration(c.WastedComputeNanos.Load()),
		PrunedReplicas:        c.PrunedReplicas.Load(),
		HedgedReads:           c.HedgedReads.Load(),
		HedgeWins:             c.HedgeWins.Load(),
		HedgeLosses:           c.HedgeLosses.Load(),
	}
}

func (s ResilienceSnapshot) String() string {
	return fmt.Sprintf(
		"reads: retries=%d failovers=%d checksum=%d | writes: failovers=%d retries=%d degraded=%d | "+
			"repair: replicas=%d unrepairable=%d moved=%d pruned=%d scans=%d | down-errors=%d dead=%d | injected: faults=%d corruptions=%d latency=%s | "+
			"speculation: attempts=%d cancelled=%d wasted=%s | "+
			"hedge: launched=%d wins=%d losses=%d",
		s.ReadRetries, s.ReadFailovers, s.ChecksumFailures,
		s.WriteFailovers, s.WriteRetries, s.DegradedWrites,
		s.RepairedReplicas, s.UnrepairableBlocks, s.RedistributedReplicas, s.PrunedReplicas, s.RepairScans,
		s.NodeDownErrors, s.NodesDeclaredDead, s.InjectedFaults, s.InjectedCorruptions, s.InjectedLatency,
		s.SpeculativeAttempts, s.CancelledAttempts, s.WastedCompute,
		s.HedgedReads, s.HedgeWins, s.HedgeLosses)
}
