// Package hadoopsim is a discrete-event simulator of the Hadoop
// map-phase mechanics the ADAPT paper models and measures (§II-B,
// §V): one map task per input block, locality-first scheduling,
// straggler stealing with block migration over a bandwidth-limited
// network, speculative re-execution, and interruption injection with
// M/G/1 FCFS recovery. It was written, like the paper's simulator,
// "with mechanism analogous to that of Hadoop" and produces the three
// quantities the evaluation reports: map-phase elapsed time, data
// locality, and the rework/recovery/migration/misc overhead breakdown.
package hadoopsim

import (
	"errors"
	"fmt"
	"math"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// Defaults from the paper's Tables 3 and 4.
const (
	// DefaultBlockBytes is the HDFS default block size, 64 MB.
	DefaultBlockBytes = 64 * 1024 * 1024
	// DefaultGamma is the failure-free execution time of one map task
	// over a 64 MB block (Table 4: 12 s).
	DefaultGamma = 12.0
	// DefaultBandwidthMbps is the default emulated link speed
	// (Table 3/4: 8 Mb/s).
	DefaultBandwidthMbps = 8.0
	// DefaultSourcePenalty is the cost multiplier for re-ingesting a
	// block from the original data source when no replica holder is
	// up. The source sits outside the cluster (the client that ran
	// copyFromLocal), so the fetch crosses the slow ingress path
	// twice; 2x the peer transfer time is the model default.
	DefaultSourcePenalty = 2.0
)

// ServiceFactory builds the interruption service (recovery) time
// distribution for a node with the given availability parameters.
type ServiceFactory func(model.Availability) (stats.Distribution, error)

// ExponentialService is the default ServiceFactory: exponential
// recovery with the node's mean μ.
func ExponentialService(a model.Availability) (stats.Distribution, error) {
	if a.Mu <= 0 {
		return stats.NewDeterministic(0), nil
	}
	return stats.ExponentialFromMean(a.Mu)
}

// Config parameterizes one simulated map phase.
type Config struct {
	// Cluster supplies node availability (parametric or trace-driven)
	// and compute rates.
	Cluster *cluster.Cluster
	// Assignment maps each block to its replica holders, produced by
	// a placement policy.
	Assignment *placement.Assignment
	// BlockBytes is the block size (default 64 MB). Task length and
	// migration time both scale with it.
	BlockBytes float64
	// Gamma is the failure-free execution seconds of one map task at
	// the reference block size of 64 MB on a rate-1 node; tasks over
	// other block sizes scale linearly (default 12 s).
	Gamma float64
	// Network is the link configuration (default symmetric 8 Mb/s).
	Network netsim.Config
	// Service builds per-node recovery distributions for nodes
	// without traces (default ExponentialService).
	Service ServiceFactory
	// Speculation selects the duplicate-execution policy (see
	// SpeculationPolicy). Zero means SpeculationReactive (stock
	// Hadoop).
	Speculation SpeculationPolicy
	// RedundancyK is the per-task attempt budget under
	// SpeculationRedundant (default DefaultRedundancyK). Ignored by
	// the other policies. K=1 is exactly the no-speculation schedule.
	RedundancyK int
	// RedundancyOverlap staggers redundant launches: attempt j waits
	// (j-1)·overlap·γ after the task's first attempt starts executing.
	// Zero means DefaultRedundancyOverlap; negative launches all K
	// attempts as soon as nodes are free.
	RedundancyOverlap float64
	// SpeculationBackoff is the initial retry delay, in simulated
	// seconds, after a predictive or redundant policy wanted a
	// duplicate but could not place one (congested fetch paths, no
	// healthy host); the delay doubles per consecutive failure up to
	// eight times the base. Zero means one quarter of the task length;
	// negative disables retry polling — the node then degrades
	// gracefully to waiting for the next scheduling event.
	SpeculationBackoff float64
	// SourcePenalty is the multiplier on peer transfer time when a
	// block must be re-ingested from the original source because no
	// holder is up. Set negative to forbid source fetches entirely
	// (tasks then wait for a holder to recover). Zero means
	// DefaultSourcePenalty.
	SourcePenalty float64
	// TransferQueueFactor bounds how far into the future a steal may
	// queue its block fetch on busy NICs, in units of one transfer
	// time. A thief skips tasks whose fetch could not start within
	// now + factor*transferTime, leaving them for their (possibly
	// recovering) holders — real TaskTrackers start fetching when the
	// task launches rather than reserving bandwidth hours ahead.
	// Zero means DefaultTransferQueueFactor; negative disables the
	// bound.
	TransferQueueFactor float64
	// Scheduler selects the JobTracker strategy (default
	// SchedulerLocalityFirst, stock Hadoop). SchedulerAvailabilityAware
	// is the paper's future-work extension: model-driven steal
	// decisions.
	Scheduler SchedulerPolicy
	// Journal, when set, records every interruption, recovery, task
	// start/abort/completion, migration, and speculation event for
	// post-run analysis (timelines, attempt histograms, downtime).
	Journal *Journal
	// OnTaskComplete, when set, is invoked once per task at its
	// (virtual) completion instant with the block index and executing
	// node. The mini MapReduce engine uses it to run the real map
	// function for the block at the simulated completion point.
	OnTaskComplete func(block int, node cluster.NodeID)
}

// DefaultTransferQueueFactor allows at most one queued transfer ahead
// of a new steal.
const DefaultTransferQueueFactor = 1.0

// Errors.
var (
	ErrNilCluster    = errors.New("hadoopsim: cluster is required")
	ErrNilAssignment = errors.New("hadoopsim: assignment is required")
	ErrNoTasks       = errors.New("hadoopsim: assignment has no blocks")
	ErrHolderRange   = errors.New("hadoopsim: assignment references node outside cluster")
	ErrNilRNG        = errors.New("hadoopsim: rng must not be nil")
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.BlockBytes == 0 {
		out.BlockBytes = DefaultBlockBytes
	}
	if out.Gamma == 0 {
		out.Gamma = DefaultGamma
	}
	if out.Network == (netsim.Config{}) {
		out.Network = netsim.FromMegabits(DefaultBandwidthMbps)
	}
	if out.Service == nil {
		out.Service = ExponentialService
	}
	if out.SourcePenalty == 0 {
		out.SourcePenalty = DefaultSourcePenalty
	}
	if out.TransferQueueFactor == 0 {
		out.TransferQueueFactor = DefaultTransferQueueFactor
	}
	if out.Scheduler == 0 {
		out.Scheduler = SchedulerLocalityFirst
	}
	if out.Speculation == 0 {
		out.Speculation = SpeculationReactive
	}
	if out.RedundancyK == 0 {
		out.RedundancyK = DefaultRedundancyK
	}
	switch {
	case out.RedundancyOverlap == 0:
		out.RedundancyOverlap = DefaultRedundancyOverlap
	case out.RedundancyOverlap < 0:
		out.RedundancyOverlap = 0
	}
	switch {
	case out.SpeculationBackoff == 0:
		out.SpeculationBackoff = out.TaskGamma() / 4
	case out.SpeculationBackoff < 0:
		out.SpeculationBackoff = 0
	}
	return out
}

func (c *Config) validate() error {
	if c.Cluster == nil || c.Cluster.Len() == 0 {
		return ErrNilCluster
	}
	if c.Assignment == nil {
		return ErrNilAssignment
	}
	if c.Assignment.BlockCount() == 0 {
		return ErrNoTasks
	}
	n := c.Cluster.Len()
	for b, hs := range c.Assignment.Replicas {
		if len(hs) == 0 {
			return fmt.Errorf("hadoopsim: block %d has no holders", b)
		}
		for _, h := range hs {
			if int(h) < 0 || int(h) >= n {
				return fmt.Errorf("%w: block %d on node %d (n=%d)", ErrHolderRange, b, h, n)
			}
		}
	}
	if c.BlockBytes <= 0 || math.IsNaN(c.BlockBytes) {
		return fmt.Errorf("hadoopsim: block size must be positive, got %g", c.BlockBytes)
	}
	if c.Gamma <= 0 || math.IsNaN(c.Gamma) {
		return fmt.Errorf("hadoopsim: gamma must be positive, got %g", c.Gamma)
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	// Policy knobs are validated post-withDefaults, where zero values
	// have already been resolved.
	switch c.Speculation {
	case 0, SpeculationReactive, SpeculationNone, SpeculationPredictive, SpeculationRedundant:
	default:
		return fmt.Errorf("hadoopsim: unknown speculation policy %d", int(c.Speculation))
	}
	if c.RedundancyK < 0 {
		return fmt.Errorf("hadoopsim: redundancy K must be positive, got %d", c.RedundancyK)
	}
	if math.IsNaN(c.RedundancyOverlap) || c.RedundancyOverlap < 0 {
		return fmt.Errorf("hadoopsim: redundancy overlap must be non-negative, got %g", c.RedundancyOverlap)
	}
	return nil
}

// TaskGamma returns the failure-free execution time of one task under
// this configuration: Gamma scaled by block size relative to 64 MB.
func (c *Config) TaskGamma() float64 {
	return c.Gamma * c.BlockBytes / DefaultBlockBytes
}
