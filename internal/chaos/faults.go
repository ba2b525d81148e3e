package chaos

import (
	"fmt"
	"sync"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/stats"
)

// InjectedError is the transient fault OpFaults returns from failed
// operations. It classifies itself as transient, so dfs.IsTransient
// (and therefore the client's retry machinery) treats it exactly like
// a node that raced down.
type InjectedError struct {
	Node  cluster.NodeID
	Op    dfs.Op
	Block dfs.BlockID
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s fault on node %d (block %d)", e.Op, e.Node, e.Block)
}

// Transient marks the fault retryable.
func (e *InjectedError) Transient() bool { return true }

// OpFaults injects operation-level faults into DataNode traffic; it
// implements dfs.FaultInjector. All draws come from one seeded RNG
// behind a mutex, so a seed reproduces the fault schedule (given the
// same operation order) and the injector is safe under concurrent
// DataNode traffic.
type OpFaults struct {
	// PutFailProb and GetFailProb are per-operation probabilities of
	// returning a transient InjectedError.
	PutFailProb float64
	GetFailProb float64
	// CorruptProb is the per-read probability of flipping one random
	// bit in the returned bytes (the stored replica stays intact);
	// the reader must catch it via the CRC32C sums: the chunk sums the
	// DataNode serves the copy under, or the block's.
	CorruptProb float64
	// Latency, when non-nil, draws injected per-operation latency in
	// seconds. It is accounted in Counters; real sleeping is bounded
	// by MaxSleep.
	Latency stats.Distribution
	// MaxSleep caps how long an operation really sleeps for injected
	// latency. 0 means account only, never sleep.
	MaxSleep time.Duration
	// Counters, when non-nil, receives injection tallies.
	Counters *metrics.ResilienceCounters

	mu sync.Mutex
	g  *stats.RNG
}

// NewOpFaults returns an injector with every fault disabled; set the
// probability fields to arm it and pass it to dfs's SetFaultInjector.
func NewOpFaults(g *stats.RNG) (*OpFaults, error) {
	if g == nil {
		return nil, ErrNilRNG
	}
	return &OpFaults{g: g}, nil
}

// FailOp implements dfs.FaultInjector: it injects latency, then fails
// the operation with probability PutFailProb/GetFailProb. Deletes are
// never failed (they are metadata-driven in the dfs model).
func (f *OpFaults) FailOp(node cluster.NodeID, op dfs.Op, block dfs.BlockID) error {
	f.mu.Lock()
	var lat float64
	if f.Latency != nil {
		lat = f.Latency.Sample(f.g)
	}
	p := 0.0
	switch op {
	case dfs.OpPut:
		p = f.PutFailProb
	case dfs.OpGet:
		p = f.GetFailProb
	}
	fail := p > 0 && f.g.Float64() < p
	f.mu.Unlock()

	if lat > 0 {
		d := time.Duration(lat * float64(time.Second))
		if f.Counters != nil {
			f.Counters.InjectedLatencyNanos.Add(int64(d))
		}
		if f.MaxSleep > 0 {
			if d > f.MaxSleep {
				d = f.MaxSleep
			}
			//lint:ignore determinism latency injection IS the feature: the stall length is seed-derived and capped by MaxSleep
			time.Sleep(d)
		}
	}
	if fail {
		if f.Counters != nil {
			f.Counters.InjectedFaults.Add(1)
		}
		return &InjectedError{Node: node, Op: op, Block: block}
	}
	return nil
}

// CorruptRead implements dfs.FaultInjector: with probability
// CorruptProb it flips one random bit of the (already copied) read
// buffer.
func (f *OpFaults) CorruptRead(node cluster.NodeID, block dfs.BlockID, data []byte) []byte {
	if len(data) == 0 || f.CorruptProb <= 0 {
		return data
	}
	f.mu.Lock()
	corrupt := f.g.Float64() < f.CorruptProb
	var byteIdx, bitIdx int
	if corrupt {
		byteIdx = f.g.IntN(len(data))
		bitIdx = f.g.IntN(8)
	}
	f.mu.Unlock()
	if corrupt {
		data[byteIdx] ^= 1 << bitIdx
		if f.Counters != nil {
			f.Counters.InjectedCorruptions.Add(1)
		}
	}
	return data
}
