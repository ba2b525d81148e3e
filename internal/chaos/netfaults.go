package chaos

import (
	"fmt"
	"sync"
	"time"

	"github.com/adaptsim/adapt/internal/stats"
)

// NetError is the transient fault NetFaults injects into the wire
// layer: a dropped message or a severed connection between two named
// endpoints. It classifies itself as transient, so dfs.IsTransient
// (and the client retry machinery above it) treats an injected
// partition like any other node outage.
type NetError struct {
	From, To string
	Reason   string // "partitioned" or "dropped"
}

func (e *NetError) Error() string {
	return fmt.Sprintf("chaos: %s -> %s %s", e.From, e.To, e.Reason)
}

// Transient marks the fault retryable.
func (e *NetError) Transient() bool { return true }

// NetFaults perturbs the svc wire layer: it can sever all traffic
// touching a named endpoint (a partition), drop individual messages
// with a probability, and impose per-message latency. It implements
// the transport fault hook the svc package consults on every dial and
// frame send (structurally — chaos does not import svc), so one
// NetFaults instance shared by every endpoint of a cluster gives
// symmetric partitions: the NameNode cannot reach a partitioned
// DataNode and that DataNode's heartbeats die on the wire too.
//
// Probabilistic draws come from one seeded RNG behind a mutex, so a
// seed reproduces the drop schedule given the same message order.
// Partitions are explicit state, not draws: Partition/Heal make the
// e2e tests deterministic.
type NetFaults struct {
	mu          sync.Mutex
	g           *stats.RNG
	dropProb    float64
	latency     stats.Distribution
	maxDelay    time.Duration
	partitioned map[string]bool
	gray        map[string]time.Duration
}

// NewNetFaults returns a hook with every fault disabled.
func NewNetFaults(g *stats.RNG) (*NetFaults, error) {
	if g == nil {
		return nil, ErrNilRNG
	}
	return &NetFaults{
		g:           g,
		partitioned: make(map[string]bool),
		gray:        make(map[string]time.Duration),
	}, nil
}

// SetDropProb sets the per-message drop probability.
//
//lint:ignore deadcode fault injection: svc's TestPipelineChaosSoak drops messages at random
func (f *NetFaults) SetDropProb(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropProb = p
}

// SetLatency installs a per-message latency distribution (seconds),
// with real sleeping capped at maxDelay (0 caps at nothing, so only
// pass 0 with a nil distribution).
//
//lint:ignore deadcode fault injection: svc's TestPipelineChaosSoak adds per-message latency
func (f *NetFaults) SetLatency(d stats.Distribution, maxDelay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
	f.maxDelay = maxDelay
}

// Partition severs every message to or from the named endpoint until
// Heal is called.
func (f *NetFaults) Partition(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned[endpoint] = true
}

// Heal reconnects a partitioned endpoint.
func (f *NetFaults) Heal(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.partitioned, endpoint)
}

// SetGray turns the named endpoint into a gray failure: every message
// sent TO it is delayed by d (stacked on any latency distribution),
// while messages FROM it — its heartbeats — flow normally. The node
// looks alive to the failure detector and serves requests 10-100x
// slower, the failure mode that kills throughput without tripping
// liveness checks. Clear with ClearGray.
//
//lint:ignore deadcode fault injection: svc's hedge and overload soaks slow one DataNode
func (f *NetFaults) SetGray(endpoint string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d <= 0 {
		delete(f.gray, endpoint)
		return
	}
	f.gray[endpoint] = d
}

// ClearGray restores the endpoint to normal service latency.
//
//lint:ignore deadcode fault injection: svc's hedge and overload soaks heal the gray DataNode
func (f *NetFaults) ClearGray(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.gray, endpoint)
}

// FailMessage is the svc transport hook: a non-nil return makes the
// wire layer fail the message (and close the connection) instead of
// delivering it.
func (f *NetFaults) FailMessage(from, to string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.partitioned[from] || f.partitioned[to] {
		return &NetError{From: from, To: to, Reason: "partitioned"}
	}
	if f.dropProb > 0 && f.g.Float64() < f.dropProb {
		return &NetError{From: from, To: to, Reason: "dropped"}
	}
	return nil
}

// MessageDelay is the svc transport hook for injected latency: the
// wire layer sleeps the returned duration before sending. The engine
// itself never sleeps — svc is wall-clock territory, chaos stays
// deterministic.
func (f *NetFaults) MessageDelay(from, to string) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Gray-failure delay is directional: traffic toward a gray node
	// crawls, but the node's own outbound heartbeats stay prompt —
	// that asymmetry is what keeps it looking alive.
	delay := f.gray[to]
	if f.latency == nil {
		return delay
	}
	d := time.Duration(f.latency.Sample(f.g) * float64(time.Second))
	if d < 0 {
		d = 0
	}
	if f.maxDelay > 0 && d > f.maxDelay {
		d = f.maxDelay
	}
	return delay + d
}
