// Package mapreduce is a runnable mini MapReduce engine — the
// repository's stand-in for the paper's Hadoop prototype. Jobs execute
// real user Map and Reduce functions over data stored in the dfs
// substrate, while task *timing* (locality-first scheduling, block
// migration, interruptions, re-execution, speculation) is produced by
// the hadoopsim discrete-event simulator over the very same block
// placement the dfs NameNode chose at write time. The result is a
// system that both computes correct outputs (TeraSort really sorts,
// WordCount really counts) and reports the paper's performance
// metrics for the run.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/hadoopsim"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/netsim"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// KV is one key-value pair.
type KV struct {
	Key   string
	Value []byte
}

// Mapper transforms one input block into key-value pairs.
type Mapper interface {
	// Map processes the block contents, calling emit for each output
	// pair. Implementations must be deterministic.
	Map(block []byte, emit func(key string, value []byte)) error
}

// Reducer folds all values of one key into output pairs.
type Reducer interface {
	Reduce(key string, values [][]byte, emit func(key string, value []byte)) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(block []byte, emit func(key string, value []byte)) error

// Map implements Mapper.
func (f MapperFunc) Map(block []byte, emit func(key string, value []byte)) error {
	return f(block, emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values [][]byte, emit func(key string, value []byte)) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values [][]byte, emit func(key string, value []byte)) error {
	return f(key, values, emit)
}

// Partitioner maps a key to one of n reduce partitions.
type Partitioner func(key string, n int) int

// HashPartition is the default partitioner (FNV-1a).
func HashPartition(key string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n)) //nolint:gosec // bounded by n
}

// Job describes one MapReduce job.
type Job struct {
	Name   string
	Input  string // dfs file holding the input
	Output string // dfs name prefix for part files ("<Output>/part-N")
	Mapper Mapper
	// Reducer may be nil for map-only jobs; map output is then
	// written directly, partitioned by key.
	Reducer Reducer
	// Reducers is the number of reduce partitions (default 1).
	Reducers int
	// Partition defaults to HashPartition.
	Partition Partitioner
}

// Result reports a completed job.
type Result struct {
	// Map holds the map-phase performance metrics from the simulator
	// (elapsed, locality, overhead breakdown).
	Map metrics.RunResult
	// ReduceElapsed is the modeled reduce+shuffle wall time in
	// seconds.
	ReduceElapsed float64
	// TotalElapsed = map elapsed + reduce elapsed.
	TotalElapsed float64
	// OutputFiles lists the dfs part files written.
	OutputFiles []string
	// ReducerHosts records which node ran each reduce partition.
	ReducerHosts []cluster.NodeID
	// MapOutputRecords and OutputRecords count pairs emitted by the
	// map and reduce stages.
	MapOutputRecords int64
	OutputRecords    int64
}

// EngineConfig tunes the engine. The timing model runs at the paper's
// defaults: γ = hadoopsim.DefaultGamma, hadoopsim.DefaultBandwidthMbps
// links, reactive speculation, reduce processing at γ per 64 MB, and
// output files written with one replica.
type EngineConfig struct {
	// ReducerMode selects reduce-task placement: ReducersRandom
	// (stock, default) or ReducersAvailabilityAware (the paper's
	// future-work reduce-phase optimization).
	ReducerMode ReducerPlacement
	// SimulatedBlockBytes, when set, makes the timing model treat
	// every input block as this size (task length and migration cost
	// both scale with it) regardless of the actual dfs block size.
	// Demo-scale data can thereby exercise production-scale dynamics:
	// set it to 64 MB and a 10 kB block behaves, timing-wise, like a
	// real HDFS block. Zero uses the actual block size.
	SimulatedBlockBytes float64
}

// reduceSecondsPerMB models reduce-side processing cost: γ per 64 MB,
// the map task's rate.
const reduceSecondsPerMB = hadoopsim.DefaultGamma / 64

// Engine runs jobs against a dfs NameNode.
type Engine struct {
	nn  *dfs.NameNode
	cfg EngineConfig
}

// Errors.
var (
	ErrNilNameNode = errors.New("mapreduce: namenode is required")
	ErrNilMapper   = errors.New("mapreduce: job needs a mapper")
	ErrNoOutput    = errors.New("mapreduce: job needs an output name")
)

// NewEngine builds an engine.
func NewEngine(nn *dfs.NameNode, cfg EngineConfig) (*Engine, error) {
	if nn == nil {
		return nil, ErrNilNameNode
	}
	return &Engine{nn: nn, cfg: cfg}, nil
}

// pair carries a mapped KV with its provenance for deterministic
// ordering.
type pair struct {
	kv    KV
	block int
	seq   int
}

// Run executes the job. The RNG drives interruption injection and
// output placement; runs are deterministic per seed.
func (e *Engine) Run(job Job, g *stats.RNG) (*Result, error) {
	if job.Mapper == nil {
		return nil, ErrNilMapper
	}
	if job.Output == "" {
		return nil, ErrNoOutput
	}
	if g == nil {
		return nil, hadoopsim.ErrNilRNG
	}
	reducers := job.Reducers
	if reducers <= 0 {
		reducers = 1
	}
	part := job.Partition
	if part == nil {
		part = HashPartition
	}

	fm, err := e.nn.Stat(job.Input)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}

	// One availability snapshot serves the whole job: the simulated map
	// phase, reducer placement and reducer slowdowns.
	cl := e.nn.Cluster()

	// The simulator replays the placement the NameNode chose when the
	// input was written — this is exactly where ADAPT placement pays
	// off or stock placement suffers.
	asn := &placement.Assignment{Nodes: cl.Len()}
	asn.Replicas = make([][]cluster.NodeID, len(fm.Blocks))
	for i, bm := range fm.Blocks {
		asn.Replicas[i] = bm.Replicas
	}

	partitions := make([][]pair, reducers)
	var mapRecords int64
	var mapErr error
	onComplete := func(block int, node cluster.NodeID) {
		if mapErr != nil {
			return
		}
		bm := fm.Blocks[block]
		data, err := e.readBlockAnyReplica(bm)
		if err != nil {
			mapErr = fmt.Errorf("mapreduce: %s: block %d: %w", job.Name, block, err)
			return
		}
		seq := 0
		err = job.Mapper.Map(data, func(key string, value []byte) {
			v := make([]byte, len(value))
			copy(v, value)
			p := part(key, reducers)
			partitions[p] = append(partitions[p], pair{kv: KV{Key: key, Value: v}, block: block, seq: seq})
			seq++
			mapRecords++
		})
		if err != nil {
			mapErr = fmt.Errorf("mapreduce: %s: map block %d: %w", job.Name, block, err)
		}
	}

	simBlockBytes := float64(fm.BlockSize)
	if e.cfg.SimulatedBlockBytes > 0 {
		simBlockBytes = e.cfg.SimulatedBlockBytes
	}
	simCfg := hadoopsim.Config{
		Cluster:        cl,
		Assignment:     asn,
		BlockBytes:     simBlockBytes,
		OnTaskComplete: onComplete,
	}
	mapRes, err := hadoopsim.Run(simCfg, g.Split())
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s: map phase: %w", job.Name, err)
	}
	if mapErr != nil {
		return nil, mapErr
	}

	// Fold the run's speculation effort into the NameNode's shared
	// resilience counters so the service layer exports it.
	rc := e.nn.Resilience()
	rc.SpeculativeAttempts.Add(int64(mapRes.SpeculativeTasks))
	rc.CancelledAttempts.Add(int64(mapRes.AttemptsCancelled))
	rc.WastedComputeNanos.Add(int64(mapRes.WastedSeconds * 1e9))

	// Deterministic shuffle order regardless of completion order.
	for _, p := range partitions {
		sort.SliceStable(p, func(i, j int) bool {
			if p[i].kv.Key != p[j].kv.Key {
				return p[i].kv.Key < p[j].kv.Key
			}
			if p[i].block != p[j].block {
				return p[i].block < p[j].block
			}
			return p[i].seq < p[j].seq
		})
	}

	res := &Result{Map: mapRes, MapOutputRecords: mapRecords}

	// Reduce phase: group, fold, write part files; wall time modeled
	// as shuffle transfer plus processing on the busiest reducer.
	outCl, err := dfs.NewClient(e.nn, g.Split())
	if err != nil {
		return nil, err
	}
	outCl.Replication = 1
	outCl.BlockSize = fm.BlockSize

	hosts := placeReducers(cl, reducers, e.cfg.ReducerMode, g)
	res.ReducerHosts = hosts

	var worst float64
	for p := 0; p < reducers; p++ {
		outBytes, records, err := e.reducePartition(job, partitions[p])
		if err != nil {
			return nil, err
		}
		partName := fmt.Sprintf("%s/part-%05d", job.Output, p)
		if _, _, err := outCl.CopyFromLocalReportContext(context.Background(), partName, outBytes, false); err != nil {
			return nil, fmt.Errorf("mapreduce: %s: write %s: %w", job.Name, partName, err)
		}
		res.OutputFiles = append(res.OutputFiles, partName)
		res.OutputRecords += records

		var inBytes int64
		for _, pr := range partitions[p] {
			inBytes += int64(len(pr.kv.Key) + len(pr.kv.Value))
		}
		// Scale reduce-side volume the same way map timing was scaled.
		scaledBytes := float64(inBytes)
		if e.cfg.SimulatedBlockBytes > 0 && fm.BlockSize > 0 {
			scaledBytes *= e.cfg.SimulatedBlockBytes / float64(fm.BlockSize)
		}
		shuffle := scaledBytes / (hadoopsim.DefaultBandwidthMbps * netsim.BytesPerMegabit)
		process := scaledBytes / (1024 * 1024) * reduceSecondsPerMB
		// The reducer's host pays its availability slowdown on the
		// processing part (capped: an effectively-dead host would
		// never finish; real Hadoop would re-execute elsewhere).
		slow := cl.Node(hosts[p]).Availability.SlowdownFactor(process)
		if slow < 1 {
			slow = 1
		}
		const maxSlowdown = 100
		if slow > maxSlowdown || math.IsInf(slow, 1) || math.IsNaN(slow) {
			slow = maxSlowdown
		}
		if t := shuffle + process*slow; t > worst {
			worst = t
		}
	}
	res.ReduceElapsed = worst
	res.TotalElapsed = mapRes.Elapsed + worst
	return res, nil
}

// reducePartition folds one partition and serializes its output as
// newline-delimited "key\tvalue" records.
func (e *Engine) reducePartition(job Job, prs []pair) ([]byte, int64, error) {
	var out []byte
	var records int64
	emit := func(key string, value []byte) {
		out = append(out, key...)
		out = append(out, '\t')
		out = append(out, value...)
		out = append(out, '\n')
		records++
	}
	if job.Reducer == nil {
		for _, pr := range prs {
			emit(pr.kv.Key, pr.kv.Value)
		}
		return out, records, nil
	}
	for i := 0; i < len(prs); {
		j := i
		key := prs[i].kv.Key
		var values [][]byte
		for j < len(prs) && prs[j].kv.Key == key {
			values = append(values, prs[j].kv.Value)
			j++
		}
		if err := job.Reducer.Reduce(key, values, emit); err != nil {
			return nil, 0, fmt.Errorf("mapreduce: %s: reduce key %q: %w", job.Name, key, err)
		}
		i = j
	}
	return out, records, nil
}

// readBlockAnyReplica reads block bytes from any replica regardless of
// the (virtual) up/down state: the simulator has already charged the
// access, and the bits persist on disk across interruptions (§II-B).
// It reads them without touching liveness, which other readers see,
// and maps only bytes that match the block's checksum: a replica read
// corrupt fails over to the next, and with none left the error wraps
// dfs.ErrChecksum.
func (e *Engine) readBlockAnyReplica(bm dfs.BlockMeta) ([]byte, error) {
	var lastErr error
	for _, r := range bm.Replicas {
		dn, err := e.nn.DataNode(r)
		if err != nil {
			return nil, err
		}
		data, err := dn.GetStored(bm.ID)
		if err == nil && dfs.Checksum(data) != bm.Checksum {
			err = fmt.Errorf("%w: block %d replica on node %d", dfs.ErrChecksum, bm.ID, r)
		}
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = dfs.ErrNoReplica
	}
	return nil, lastErr
}
