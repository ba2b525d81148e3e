package dfs

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// chainStore is an in-memory store that can stream a replication chain
// (PipelinePutter): PutChain stores the block on itself and on each
// node of rest, and the log records every Put and PutChain asked of
// any of them.
type chainStore struct {
	localStore
	peers []*DataNode // every node of the cluster, by id
	log   *chainLog
}

type chainLog struct {
	mu     sync.Mutex
	puts   int
	chains [][]cluster.NodeID // each PutChain's rest
}

func (s chainStore) Put(ctx context.Context, id BlockID, data []byte) (uint32, error) {
	s.log.mu.Lock()
	s.log.puts++
	s.log.mu.Unlock()
	return s.localStore.Put(ctx, id, data)
}

func (s chainStore) PutChain(ctx context.Context, id BlockID, data []byte, rest []cluster.NodeID) PipelineResult {
	s.log.mu.Lock()
	s.log.chains = append(s.log.chains, slices.Clone(rest))
	s.log.mu.Unlock()
	res := PipelineResult{Failed: map[cluster.NodeID]error{}}
	for _, h := range append([]cluster.NodeID{s.dn.id}, rest...) {
		sum, err := localStore{s.peers[h]}.Put(ctx, id, data)
		if err != nil {
			res.Failed[h] = err
			continue
		}
		res.Acked, res.Sum = append(res.Acked, h), sum
	}
	return res
}

// TestRedistributePipelinesFreshHolders: an adapt that moves a block
// onto two fresh holders whose stores stream chains writes both
// replicas through one pipeline from the NameNode, not two puts.
func TestRedistributePipelinesFreshHolders(t *testing.T) {
	const nodes = 6
	log := &chainLog{}
	peers := make([]*DataNode, nodes)
	stores := make([]BlockStore, nodes)
	for i := range peers {
		peers[i] = NewDataNode(cluster.NodeID(i))
	}
	for i := range stores {
		stores[i] = chainStore{localStore{peers[i]}, peers, log}
	}
	nn, err := NewNameNodeSharded(testCluster(t, nodes), stores, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(nn, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = 100
	data := payload(100) // one block
	ctx := context.Background()
	fm, _, err := cl.CopyFromLocalReportContext(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	old := fm.Blocks[0].Replicas[0]
	fresh := []cluster.NodeID{(old + 1) % nodes, (old + 2) % nodes}
	*log = chainLog{}

	moved, err := cl.redistribute(ctx, "f", &fixedPolicy{Plan: [][]cluster.NodeID{fresh}})
	if err != nil || moved != 2 {
		t.Fatalf("moved %d replicas, err %v; want 2", moved, err)
	}
	if log.puts != 0 || len(log.chains) != 1 || len(log.chains[0]) != 1 {
		t.Fatalf("%d puts and chains %v; want one pipeline whose rest is one node", log.puts, log.chains)
	}
	for _, h := range fresh {
		if !peers[h].Has(fm.Blocks[0].ID) {
			t.Fatalf("fresh holder %d lacks the block", h)
		}
	}
	if got, err := cl.ReadFileContext(ctx, "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, err %v", len(got), err)
	}
}

// TestMaintenancePruneSurvivesCancel: the surplus replica a repair pass
// retires is deleted even when the pass's ctx is already done — the
// prune is detached from cancellation, like redistribute's — so the
// metadata trim never leaves the bytes behind.
func TestMaintenancePruneSurvivesCancel(t *testing.T) {
	nn, cl := testClient(t, 8, 100)
	cl.Replication = 2
	data := payload(100) // one block
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	bm := fm.Blocks[0]
	var extra cluster.NodeID
	for slices.Contains(bm.Replicas, extra) {
		extra++
	}
	if err := mustDataNode(t, nn, extra).Put(bm.ID, data); err != nil {
		t.Fatal(err)
	}
	surplus := bm
	surplus.Replicas = append(slices.Clone(bm.Replicas), extra)
	if err := nn.publishBlocks("f", []BlockMeta{surplus}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := cl.MaintainReplication(ctx, "f", false)
	if err != nil || report.Pruned != 1 {
		t.Fatalf("report %+v, err %v; want one replica pruned", report, err)
	}
	after, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range surplus.Replicas {
		if !slices.Contains(after.Blocks[0].Replicas, h) && mustDataNode(t, nn, h).Has(bm.ID) {
			t.Fatalf("node %d was pruned from the metadata but still holds the block", h)
		}
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// shedGetStore is an in-memory store whose Get sheds, counting each.
type shedGetStore struct {
	localStore
	gets *int
}

func (s shedGetStore) Get(context.Context, BlockID, []byte) (GetResult, error) {
	*s.gets++
	return GetResult{}, fmt.Errorf("store %d: %w", s.dn.id, ErrOverload)
}

// TestRepairReadDoesNotRetryIntoOverload: a repair whose only live
// source sheds its read gives up on the block after one round of Gets,
// as ReadFile does; it does not back off and retry into a saturated
// cluster.
func TestRepairReadDoesNotRetryIntoOverload(t *testing.T) {
	nn, cl := testClient(t, 8, 100)
	cl.Replication = 2
	cl.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(100), false)
	if err != nil {
		t.Fatal(err)
	}
	down, source := fm.Blocks[0].Replicas[0], fm.Blocks[0].Replicas[1]
	mustDataNode(t, nn, down).SetUp(false)
	gets := 0
	nn.io.stores[source] = shedGetStore{nn.io.stores[source].(localStore), &gets}

	report, err := cl.MaintainReplication(context.Background(), "f", false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Unrepairable != 1 || report.Repaired != 0 {
		t.Fatalf("report %+v; want the block unrepairable", report)
	}
	if r := nn.Resilience().Snapshot(); gets != 1 || r.ReadRetries != 0 {
		t.Fatalf("%d Gets and %d read retries; want one round and none", gets, r.ReadRetries)
	}
}

// TestWriteStepAllocs: the write side's twin of TestReadLadderAllocs.
// An in-process RF 3 put of one block allocates at most
// writeStepAllocs times: the stores' own puts and the holder list, and
// no closure, map or per-attempt set of the write step.
func TestWriteStepAllocs(t *testing.T) {
	const writeStepAllocs = 9 // 12 before the split: the try closure, the tried map, a chain built for stores that cannot stream one
	block := make([]byte, 4096)
	stores := make([]BlockStore, 3)
	for i := range stores {
		stores[i] = localStore{NewDataNode(cluster.NodeID(i))}
	}
	io := NewBlockIO(stores)
	ctx := context.Background()
	want := []cluster.NodeID{0, 1, 2}
	g := stats.NewRNG(1)
	put := func() {
		placed, _, err := io.writeBlockReplicas(ctx, 1, block, want, 3, g, RetryPolicy{}, nil)
		if err != nil || len(placed) != 3 {
			t.Fatalf("placed %v, err %v", placed, err)
		}
	}
	put() // the replica pool's first buffers
	if got := testing.AllocsPerRun(100, put); got > writeStepAllocs {
		t.Fatalf("an in-process RF 3 block put allocates %v times, want at most %d", got, writeStepAllocs)
	}
	if r := io.Resilience().Snapshot(); r.WriteFailovers != 0 || r.NodeDownErrors != 0 {
		t.Fatalf("resilience %+v on a fault-free put", r)
	}
}
