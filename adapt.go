// Package adapt is a Go implementation of ADAPT — the
// availability-aware MapReduce data placement strategy of Jin, Yang,
// Sun and Raicu (ICDCS 2012) — together with every substrate the
// paper's evaluation needs: the stochastic availability model
// (eqs. 2–5), the placement algorithms (ADAPT's Algorithm 1, stock
// random HDFS placement, and the naive availability-proportional
// strawman), an HDFS-model distributed file system with the
// prototype's copyFromLocal/cp/adapt client commands, a Hadoop-analog
// discrete-event simulator for non-dedicated clusters, a runnable
// mini MapReduce engine (TeraSort, WordCount, Grep), SETI@home-style
// failure-trace generation, and the experiment harness that
// regenerates each of the paper's tables and figures.
//
// # Quick start
//
//	g := adapt.NewRNG(1)
//	cluster, _ := adapt.NewEmulationCluster(adapt.EmulationClusterConfig{
//		Nodes:            128,
//		InterruptedRatio: 0.5,
//	}, g)
//	policy, _ := adapt.NewAdaptPolicy(cluster, 12 /* γ seconds per block */)
//	result, _ := adapt.RunScenario(adapt.Scenario{
//		Config:   adapt.SimConfig{Cluster: cluster},
//		Policy:   policy,
//		Blocks:   128 * 20,
//		Replicas: 1,
//	}, g)
//	fmt.Printf("map phase: %.0fs, locality %.1f%%\n",
//		result.Elapsed, 100*result.Locality())
//
// The public surface is a facade over the internal packages; every
// identifier here is an alias or thin wrapper, so the documentation on
// the aliased types applies directly.
package adapt

import (
	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/experiments"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/mapreduce"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
	"github.com/adaptsim/adapt/internal/workload"
)

// ---- randomness -------------------------------------------------------------

// RNG is the deterministic random stream all stochastic components
// consume.
type RNG = stats.RNG

// NewRNG returns a seeded generator; equal seeds give equal streams.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// DeriveSeed derives a child seed from a root and positional
// coordinates with SplitMix64 steps — the parallel experiment engine's
// per-cell seeding scheme. Stable across runs, platforms, and worker
// counts.
var DeriveSeed = stats.DeriveSeed

// HashLabel hashes a label to a uint64 suitable as a DeriveSeed part
// (64-bit FNV-1a).
var HashLabel = stats.HashLabel

// Distribution is a probability distribution over non-negative values.
type Distribution = stats.Distribution

// ---- the availability model (paper §III) -------------------------------------

// Availability carries a host's interruption rate λ and mean recovery
// time μ; it implements the paper's equations (2)–(5) as methods
// (ExpectedRework, ExpectedDowntime, ExpectedAttempts,
// ExpectedTaskTime, Efficiency).
type Availability = model.Availability

// FromMTBI builds an Availability from a mean time between
// interruptions and a mean recovery time.
func FromMTBI(mtbi, mu float64) Availability { return model.FromMTBI(mtbi, mu) }

// TaskSimConfig and SimulateTaskTime expose the single-task
// Monte-Carlo validator of the analytic model.
type TaskSimConfig = model.TaskSimConfig

// SimulateTaskTime runs one Monte-Carlo realization of a task under
// the paper's interruption process.
func SimulateTaskTime(cfg TaskSimConfig, g *RNG) (float64, error) {
	return model.SimulateTaskTime(cfg, g)
}

// ---- clusters and traces -----------------------------------------------------

// Cluster is the host population placements and simulations run
// against.
type Cluster = cluster.Cluster

// NodeID indexes a node within its cluster.
type NodeID = cluster.NodeID

// AvailabilityGroup is one emulation availability class (paper
// Table 2).
type AvailabilityGroup = cluster.Group

// EmulationClusterConfig configures the paper's emulated environment.
type EmulationClusterConfig = cluster.EmulationConfig

// NewEmulationCluster builds the §V-A emulated cluster (Table 2
// groups, configurable interrupted ratio).
func NewEmulationCluster(cfg EmulationClusterConfig, g *RNG) (*Cluster, error) {
	return cluster.NewEmulation(cfg, g)
}

// Table2Groups returns the four availability groups of paper Table 2.
func Table2Groups() []AvailabilityGroup { return cluster.Table2Groups() }

// Trace types: per-host interruption histories in the style of the
// Failure Trace Archive.
type (
	Trace      = trace.Trace
	TraceEvent = trace.Event
	TraceSet   = trace.Set
	TraceStats = trace.Stats
)

// TraceGeneratorConfig parameterizes the synthetic SETI@home-style
// trace generator calibrated against the paper's Table 1.
type TraceGeneratorConfig = trace.GeneratorConfig

// DefaultSETITraceConfig returns the Table 1-calibrated generator
// configuration.
func DefaultSETITraceConfig(hosts int) TraceGeneratorConfig {
	return trace.DefaultSETIConfig(hosts)
}

// GenerateTraces produces a synthetic failure-trace population.
func GenerateTraces(cfg TraceGeneratorConfig, g *RNG) (*TraceSet, error) {
	return trace.Generate(cfg, g)
}

// ComputeTraceStats pools Table 1-style statistics over a trace set.
func ComputeTraceStats(s *TraceSet) TraceStats { return trace.ComputeStats(s) }

// Trace CSV codec.
var (
	WriteTraceCSV = trace.WriteCSV
	ReadTraceCSV  = trace.ReadCSV
)

// ClusterFromTraces builds a cluster whose nodes replay the traces and
// carry availability estimated from them.
func ClusterFromTraces(s *TraceSet) (*Cluster, error) { return cluster.NewFromTraces(s) }

// SampleClusterFromTraces samples n hosts from the set, as the paper
// sampled 16384 SETI@home hosts.
func SampleClusterFromTraces(s *TraceSet, n int, g *RNG) (*Cluster, error) {
	return cluster.SampleFromTraces(s, n, g)
}

// ---- placement (the paper's core contribution) -------------------------------

// PlacementPolicy chooses replica holders for a file's blocks.
type PlacementPolicy = placement.Policy

// Placer assigns the blocks of one file.
type Placer = placement.Placer

// Assignment is a complete block → replica-holders mapping.
type Assignment = placement.Assignment

// RandomPolicy is stock HDFS placement (uniform random).
type RandomPolicy = placement.Random

// WeightedPolicy is the availability-aware machinery behind ADAPT and
// the naive strategy.
type WeightedPolicy = placement.Weighted

// NewAdaptPolicy returns ADAPT (Algorithm 1): nodes weighted by
// 1/E[T] at failure-free task length gamma seconds.
func NewAdaptPolicy(c *Cluster, gamma float64) (*WeightedPolicy, error) {
	return placement.NewAdapt(c, gamma)
}

// NewNaivePolicy returns the §V-C strawman weighted by steady-state
// availability (MTBI−μ)/MTBI.
func NewNaivePolicy(c *Cluster) (*WeightedPolicy, error) {
	return placement.NewNaive(c)
}

// NewRandomPolicy returns stock HDFS placement.
func NewRandomPolicy(c *Cluster) *RandomPolicy { return &placement.Random{Cluster: c} }

// HashringPolicy is the deterministic consistent-hash mode: token
// counts follow the ADAPT efficiencies 1/E[T], block holders are pure
// hashes of (file, block index), and tenants are confined to shuffled
// size-S ring subsets.
type HashringPolicy = placement.Hashring

// NewHashringPolicy builds the hashring mode for one file on a ring
// weighted by 1/E[T] at task length gamma. tenant "" is the default
// tenant; s <= 0 makes the whole ring eligible, s > 0 confines the
// tenant to its shuffled size-s subset (N-of-S replication).
func NewHashringPolicy(c *Cluster, gamma float64, file, tenant string, s int) (*HashringPolicy, error) {
	ring, err := placement.BuildAvailabilityRing(c, gamma, 0)
	if err != nil {
		return nil, err
	}
	return placement.NewHashring(ring, file, tenant, s, nil)
}

// PlaceAll drives a policy over m blocks with k replicas.
func PlaceAll(p PlacementPolicy, m, k int, g *RNG) (*Assignment, error) {
	return placement.PlaceAll(p, m, k, g)
}

// PlacementThreshold returns the per-node cap m(k+1)/n of §IV-C.
func PlacementThreshold(m, k, n int) int { return placement.Threshold(m, k, n) }

// ---- simulation ---------------------------------------------------------------

// SimConfig parameterizes one simulated map phase (Hadoop-analog
// simulator).
type SimConfig = hadoopsim.Config

// Scenario bundles a policy with a simulator configuration.
type Scenario = hadoopsim.Scenario

// RunResult is a simulated run's metrics: elapsed time, locality, and
// the rework/recovery/migration/misc overhead breakdown.
type RunResult = metrics.RunResult

// OverheadBreakdown is the §V-C overhead accounting.
type OverheadBreakdown = metrics.Breakdown

// OverheadRatio is a breakdown normalized by the failure-free base.
type OverheadRatio = metrics.Ratio

// RunAggregate averages results over repeated trials.
type RunAggregate = metrics.Aggregate

// RunSimulation simulates one map phase over a fixed assignment.
func RunSimulation(cfg SimConfig, g *RNG) (RunResult, error) {
	return hadoopsim.Run(cfg, g)
}

// RunScenario places blocks with the scenario's policy and simulates
// the map phase.
func RunScenario(sc Scenario, g *RNG) (RunResult, error) {
	return hadoopsim.RunScenario(sc, g)
}

// RunTrialsSeeded repeats a scenario across a worker pool with
// per-trial seeds derived from the trial index; the aggregate is
// bit-identical for every worker count.
func RunTrialsSeeded(sc Scenario, trials, workers int, seed uint64) (RunAggregate, error) {
	return hadoopsim.RunTrialsSeeded(sc, trials, workers, seed)
}

// RunTrials repeats a scenario and aggregates (the paper averages 10
// runs per scenario).
func RunTrials(sc Scenario, trials int, g *RNG) (RunAggregate, error) {
	return hadoopsim.RunTrials(sc, trials, g)
}

// SimJournal records simulator events for post-run analysis
// (timelines, attempt histograms, per-node downtime). Attach one via
// SimConfig.Journal.
type SimJournal = hadoopsim.Journal

// LatencyPercentiles summarizes task latencies at p50/p95/p99.
var LatencyPercentiles = hadoopsim.LatencyPercentiles

// SchedulerPolicy selects the simulated JobTracker strategy.
type SchedulerPolicy = hadoopsim.SchedulerPolicy

// Scheduler strategies: stock Hadoop locality-first stealing, and the
// availability-aware extension (paper §VII future work) that gates
// steals on the model.
const (
	SchedulerLocalityFirst     = hadoopsim.SchedulerLocalityFirst
	SchedulerAvailabilityAware = hadoopsim.SchedulerAvailabilityAware
)

// SpeculationPolicy selects the simulated duplicate-execution strategy
// (SimConfig.Speculation).
type SpeculationPolicy = hadoopsim.SpeculationPolicy

// Speculation policies: stock Hadoop's reactive stragglers-only
// duplication, speculation disabled, availability-predictive backups
// launched before the expected interruption, and redundant-K up-front
// assignment with first-finisher-wins.
const (
	SpeculationReactive   = hadoopsim.SpeculationReactive
	SpeculationNone       = hadoopsim.SpeculationNone
	SpeculationPredictive = hadoopsim.SpeculationPredictive
)

// ParseSpeculationPolicy parses a policy name (reactive | none |
// predictive | redundant) as the CLIs spell them.
func ParseSpeculationPolicy(s string) (SpeculationPolicy, error) {
	return hadoopsim.ParseSpeculationPolicy(s)
}

// Multi-job workloads: a FIFO job queue sharing one non-dedicated
// cluster, each job placing its blocks at submission.
type (
	JobSpec        = hadoopsim.JobSpec
	MultiJobConfig = hadoopsim.MultiJobConfig
	JobResult      = hadoopsim.JobResult
	MultiJobResult = hadoopsim.MultiJobResult
)

// RunMultiJob simulates a FIFO multi-job workload.
func RunMultiJob(cfg MultiJobConfig, g *RNG) (*MultiJobResult, error) {
	return hadoopsim.RunMultiJob(cfg, g)
}

// NetworkConfig describes per-node link capacities.
type NetworkConfig = netsim.Config

// NetworkFromMegabits builds a symmetric network configuration from a
// Mb/s figure (the paper sweeps 4–32 Mb/s).
func NetworkFromMegabits(mbps float64) NetworkConfig { return netsim.FromMegabits(mbps) }

// ---- distributed file system ---------------------------------------------------

// NameNode and DFSClient model the HDFS subsystem the prototype
// modifies.
type (
	NameNode  = dfs.NameNode
	DFSClient = dfs.Client
)

// NewNameNode builds a NameNode (plus one DataNode per cluster node).
func NewNameNode(c *Cluster) (*NameNode, error) { return dfs.NewNameNode(c) }

// NewDFSClient builds a client with the prototype's shell surface:
// copyFromLocal (CopyFromLocalReportContext) and Cp with an ADAPT
// flag, Adapt, Rebalance — each taking a context first.
func NewDFSClient(nn *NameNode, g *RNG) (*DFSClient, error) { return dfs.NewClient(nn, g) }

// ---- resilience: retry and counters ---------------------------------------------

// IsTransient reports whether an error is retryable: injected faults
// and outage-shaped failures are, metadata errors are not.
func IsTransient(err error) bool { return dfs.IsTransient(err) }

// RetryPolicy bounds the client's exponential-backoff retries.
type RetryPolicy = dfs.RetryPolicy

// ResilienceCounters tallies retries, failovers, repairs, checksum
// catches, and injected faults across a NameNode's lifetime
// (NameNode.Resilience returns the shared instance).
type ResilienceCounters = metrics.ResilienceCounters

// ---- chaos engine ----------------------------------------------------------------

// The chaos engine drives deterministic DataNode churn from the
// cluster's (λ, μ) parameters or replayed traces, plus operation-level
// faults, to exercise the resilience machinery end to end.
type (
	ChaosConfig = chaos.Config
	ChaosEngine = chaos.Engine
	ChaosTarget = chaos.Target
	OpFaults    = chaos.OpFaults
)

// NewChaosEngine builds a seeded churn engine over a cluster; equal
// seeds reproduce the event schedule exactly.
func NewChaosEngine(cfg ChaosConfig, g *RNG) (*ChaosEngine, error) { return chaos.New(cfg, g) }

// NewOpFaults returns a disarmed operation-fault injector; set its
// probability fields and install it with NameNode.SetFaultInjector.
func NewOpFaults(g *RNG) (*OpFaults, error) { return chaos.NewOpFaults(g) }

// ---- MapReduce engine -----------------------------------------------------------

// The mini MapReduce engine executes real Map/Reduce functions over
// dfs data under simulated non-dedicated timing.
type (
	MRJob          = mapreduce.Job
	MREngine       = mapreduce.Engine
	MREngineConfig = mapreduce.EngineConfig
	Mapper         = mapreduce.Mapper
	Reducer        = mapreduce.Reducer
	Partitioner    = mapreduce.Partitioner
)

// ReducerPlacement selects reduce-task hosting: stock random, or the
// availability-aware extension (paper §VII future work).
type ReducerPlacement = mapreduce.ReducerPlacement

// Reducer placement modes.
const (
	ReducersRandom            = mapreduce.ReducersRandom
	ReducersAvailabilityAware = mapreduce.ReducersAvailabilityAware
)

// NewMREngine builds a MapReduce engine over a NameNode.
func NewMREngine(nn *NameNode, cfg MREngineConfig) (*MREngine, error) {
	return mapreduce.NewEngine(nn, cfg)
}

// ---- workloads -------------------------------------------------------------------

// Benchmark workloads (Terasort per §V-A, plus WordCount and Grep).
var (
	TeraGen          = workload.TeraGen
	TeraSortJob      = workload.TeraSortJob
	SampleBoundaries = workload.SampleBoundaries
	CheckSorted      = workload.CheckSorted
	WordCountJob     = workload.WordCountJob
	ParseCounts      = workload.ParseCounts
)

// ---- experiments (paper tables & figures) -----------------------------------------

// Experiment configurations and runners regenerating the paper's
// evaluation.
type (
	ExperimentSeries      = experiments.Series
	EmulationConfig       = experiments.EmulationConfig
	SimulationConfig      = experiments.SimulationConfig
	ExperimentResult      = experiments.Result
	ResultTable           = experiments.Table
	HeadlineCell          = experiments.HeadlineCell
	ModelValidationRow    = experiments.ModelValidationRow
	Table1Config          = experiments.Table1Config
	Table1Result          = experiments.Table1Result
	ModelValidationConfig = experiments.ModelValidationConfig
	SensitivityConfig     = experiments.SensitivityConfig
	SensitivityRow        = experiments.SensitivityRow
	AblationConfig        = experiments.AblationConfig
	AblationRow           = experiments.AblationRow
	SchedulingConfig      = experiments.SchedulingConfig
	SchedulingResult      = experiments.SchedulingResult
	SchedulingCell        = experiments.SchedulingCell
)

// Strategy identifiers.
const (
	StrategyRandom = experiments.StrategyRandom
	StrategyAdapt  = experiments.StrategyAdapt
	StrategyNaive  = experiments.StrategyNaive
)

// SimMode selects trace handling for the simulation experiments:
// parametric regeneration from estimated (λ, μ) — the default, the
// paper's "inject failures based on the data" — or verbatim replay.
type SimMode = experiments.SimMode

// Experiment runners (one per paper table/figure).
var (
	PaperEmulationConfig    = experiments.PaperEmulationConfig
	PaperSimulationConfig   = experiments.PaperSimulationConfig
	DefaultSimulationConfig = experiments.DefaultSimulationConfig
	Figure3a                = experiments.Figure3a
	Figure3b                = experiments.Figure3b
	Figure3c                = experiments.Figure3c
	Figure5a                = experiments.Figure5a
	Figure5b                = experiments.Figure5b
	Figure5c                = experiments.Figure5c
	Table1                  = experiments.Table1
	Headline                = experiments.Headline
	HeadlineTable           = experiments.HeadlineTable
	ModelValidation         = experiments.ModelValidation
	ModelValidationTable    = experiments.ModelValidationTable
	DefaultsTable           = experiments.DefaultsTable
	Sensitivity             = experiments.Sensitivity
	SensitivityTable        = experiments.SensitivityTable
	Ablation                = experiments.Ablation
	AblationTable           = experiments.AblationTable
	SchedulingHeadline      = experiments.SchedulingHeadline
	SchedulingTable         = experiments.SchedulingTable
)
