package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// fixedPolicy places block i on exactly Plan[i] — deterministic
// placement for failure-scenario tests.
type fixedPolicy struct {
	Plan [][]cluster.NodeID
}

func (p *fixedPolicy) Name() string { return "fixed" }

func (p *fixedPolicy) NewPlacer(m, k int, g *stats.RNG) (placement.Placer, error) {
	return &fixedPlacer{plan: p.Plan}, nil
}

type fixedPlacer struct {
	plan [][]cluster.NodeID
	next int
}

func (p *fixedPlacer) PlaceBlock(dst []cluster.NodeID) ([]cluster.NodeID, error) {
	if p.next >= len(p.plan) {
		return nil, fmt.Errorf("fixed placer: out of planned blocks")
	}
	dst = append(dst, p.plan[p.next]...)
	p.next++
	return dst, nil
}

// stubFaults is a scriptable FaultInjector for unit tests.
type stubFaults struct {
	mu          sync.Mutex
	failPutOn   map[cluster.NodeID]bool
	failGets    int // fail this many Gets (any node), then succeed
	corruptOn   map[cluster.NodeID]bool
	injectedErr error
}

type stubInjectedError struct{ node cluster.NodeID }

func (e *stubInjectedError) Error() string {
	return fmt.Sprintf("stub: injected fault on node %d", e.node)
}
func (e *stubInjectedError) Transient() bool { return true }

func (s *stubFaults) FailOp(node cluster.NodeID, op Op, block BlockID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case OpPut:
		if s.failPutOn[node] {
			return &stubInjectedError{node}
		}
	case OpGet:
		if s.failGets > 0 {
			s.failGets--
			return &stubInjectedError{node}
		}
	}
	return nil
}

func (s *stubFaults) CorruptRead(node cluster.NodeID, block BlockID, data []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.corruptOn[node] && len(data) > 0 {
		data[0] ^= 0x40
	}
	return data
}

func resilienceFixture(t *testing.T, nodes int) (*NameNode, *Client) {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: nodes, InterruptedRatio: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(nn, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = 100
	return nn, cl
}

func mustDataNode(t *testing.T, nn *NameNode, id cluster.NodeID) *DataNode {
	t.Helper()
	dn, err := nn.DataNode(id)
	if err != nil {
		t.Fatal(err)
	}
	return dn
}

func TestErrNodeDownSentinel(t *testing.T) {
	nn, _ := resilienceFixture(t, 4)
	dn := mustDataNode(t, nn, 1)
	dn.SetUp(false)
	if err := dn.Put(9, []byte("x")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Put on down node = %v, want ErrNodeDown", err)
	}
	if _, err := dn.Get(9); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get on down node = %v, want ErrNodeDown", err)
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", ErrNodeDown)) {
		t.Fatal("ErrNodeDown should classify as transient")
	}
	if IsTransient(ErrFileExists) || IsTransient(ErrBadBlockSize) {
		t.Fatal("permanent errors misclassified as transient")
	}
}

// TestRedistributeAbortKeepsFileIntact is the regression test for the
// redistribute data-loss window: the old implementation deleted
// vacated replicas block-by-block before publishing the new block map,
// so an error on a later block left earlier blocks' only copies gone
// while the metadata still pointed at them. The crash-consistent
// implementation must leave the file fully readable from its original
// locations after a mid-flight failure, and clean up the partial
// copies it made.
func TestRedistributeAbortKeepsFileIntact(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	data := bytes.Repeat([]byte("abcdefghij"), 20) // 2 blocks of 100
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}
	before, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Blocks) != 2 {
		t.Fatalf("want 2 blocks, got %d", len(before.Blocks))
	}

	// Plan: move block 0 to a fresh node (succeeds), then move block 1
	// onto a down node (fails) — exactly the partial-failure shape
	// that used to lose block 0.
	free := func(used map[cluster.NodeID]bool) []cluster.NodeID {
		var out []cluster.NodeID
		for i := 0; i < 4; i++ {
			if !used[cluster.NodeID(i)] {
				out = append(out, cluster.NodeID(i))
			}
		}
		return out
	}
	used := map[cluster.NodeID]bool{
		before.Blocks[0].Replicas[0]: true,
		before.Blocks[1].Replicas[0]: true,
	}
	spare := free(used)
	if len(spare) < 2 {
		t.Fatalf("fixture needs 2 spare nodes, got %d", len(spare))
	}
	moveTarget, failTarget := spare[0], spare[1]
	mustDataNode(t, nn, failTarget).SetUp(false)

	pol := &fixedPolicy{Plan: [][]cluster.NodeID{{moveTarget}, {failTarget}}}
	if _, err := cl.redistribute(context.Background(), "f", pol); err == nil {
		t.Fatal("redistribute onto a down node should fail")
	} else if !IsTransient(err) {
		t.Fatalf("mid-flight node-down failure should be transient, got %v", err)
	}

	after, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Blocks {
		if got, want := after.Blocks[i].Replicas, before.Blocks[i].Replicas; len(got) != len(want) || got[0] != want[0] {
			t.Fatalf("block %d metadata changed by aborted redistribute: %v -> %v", i, want, got)
		}
	}
	if mustDataNode(t, nn, moveTarget).Has(before.Blocks[0].ID) {
		t.Fatal("aborted redistribute leaked a partial copy")
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatalf("file unreadable after aborted redistribute: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted by aborted redistribute")
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRedistributePublishesBeforePruning(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	data := bytes.Repeat([]byte("0123456789"), 10) // 1 block
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	oldHolder := fm.Blocks[0].Replicas[0]
	newHolder := cluster.NodeID((int(oldHolder) + 1) % 4)

	moved, err := cl.redistribute(context.Background(), "f", &fixedPolicy{Plan: [][]cluster.NodeID{{newHolder}}})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	after, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if after.Blocks[0].Replicas[0] != newHolder {
		t.Fatalf("metadata holder = %d, want %d", after.Blocks[0].Replicas[0], newHolder)
	}
	if mustDataNode(t, nn, oldHolder).Has(fm.Blocks[0].ID) {
		t.Fatal("old replica not pruned after publish")
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	if nn.Resilience().Snapshot().RedistributedReplicas != 1 {
		t.Fatal("RedistributedReplicas counter not incremented")
	}
}

func TestChecksumFailoverOnCorruptRead(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	cl.Replication = 2
	data := bytes.Repeat([]byte("checksums!"), 10)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	first := fm.Blocks[0].Replicas[0]
	faults := &stubFaults{corruptOn: map[cluster.NodeID]bool{first: true}}
	nn.SetFaultInjector(faults)
	defer nn.SetFaultInjector(nil)

	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatalf("read with one corrupt replica should fail over: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover returned wrong bytes")
	}
	snap := nn.Resilience().Snapshot()
	if snap.ChecksumFailures == 0 {
		t.Fatal("checksum failure not counted")
	}

	// Corrupt every replica: the read must fail with a transient,
	// ErrNoReplica-wrapped error rather than return bad bytes.
	for _, r := range fm.Blocks[0].Replicas {
		faults.mu.Lock()
		faults.corruptOn[r] = true
		faults.mu.Unlock()
	}
	if _, err := cl.readBlock(context.Background(), fm.Blocks[0]); err == nil {
		t.Fatal("read with all replicas corrupt should fail")
	} else if !errors.Is(err, ErrNoReplica) || !IsTransient(err) {
		t.Fatalf("want transient ErrNoReplica, got %v", err)
	}
}

func TestDegradedWriteFallsBackAndReports(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	cl.Replication = 3
	mustDataNode(t, nn, 2).SetUp(false)
	mustDataNode(t, nn, 3).SetUp(false)

	data := bytes.Repeat([]byte("degraded!!"), 10) // 1 block
	pol := &fixedPolicy{Plan: [][]cluster.NodeID{{2, 3, 0}}}
	var report WriteReport
	fm, err := nn.createFile(context.Background(), "f", bytes.NewReader(data), int64(len(data)), cl.BlockSize, cl.Replication, pol, stats.NewRNG(1), cl.Retry, &report)
	if err != nil {
		t.Fatalf("degraded write should succeed on surviving nodes: %v", err)
	}
	if got := len(fm.Blocks[0].Replicas); got != 2 {
		t.Fatalf("achieved replicas = %d, want 2 (nodes 0 and 1)", got)
	}
	if report.MinReplication != 2 || report.DegradedBlocks != 1 || report.Failovers == 0 {
		t.Fatalf("report = %+v", report)
	}
	if !report.Degraded() {
		t.Fatal("report should flag degradation")
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded file unreadable: %v", err)
	}

	// Healing: the downed nodes rejoin and maintenance restores the
	// target replication degree.
	mustDataNode(t, nn, 2).SetUp(true)
	mustDataNode(t, nn, 3).SetUp(true)
	rep, err := cl.MaintainReplication(context.Background(), "f", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", rep.Repaired)
	}
	healed, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(healed.Blocks[0].Replicas) != 3 {
		t.Fatalf("replication not restored: %v", healed.Blocks[0].Replicas)
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRetriesUntilNodeRejoins(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	for i := 0; i < 4; i++ {
		mustDataNode(t, nn, cluster.NodeID(i)).SetUp(false)
	}
	// The retry backoff doubles as the rejoin signal: the first wait
	// brings node 0 back, emulating recovery during the write.
	var woke atomic.Int64
	cl.Retry = RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		Sleep: func(time.Duration) {
			if woke.Add(1) == 1 {
				mustDataNode(t, nn, 0).SetUp(true)
			}
		},
	}
	data := bytes.Repeat([]byte("waitforit!"), 10)
	fm, report, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatalf("write should succeed once a node rejoins: %v", err)
	}
	if report.Retries == 0 {
		t.Fatalf("report = %+v, want at least one retry", report)
	}
	if len(fm.Blocks[0].Replicas) != 1 || fm.Blocks[0].Replicas[0] != 0 {
		t.Fatalf("replicas = %v, want [0]", fm.Blocks[0].Replicas)
	}
}

func TestWriteFailsWhenNoNodeEverAccepts(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	for i := 0; i < 4; i++ {
		mustDataNode(t, nn, cluster.NodeID(i)).SetUp(false)
	}
	cl.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}
	_, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", bytes.Repeat([]byte("x"), 100), false)
	if !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("want ErrNoLiveNodes, got %v", err)
	}
	if nn.Exists("f") {
		t.Fatal("failed create left metadata behind")
	}
	// No replica may leak either.
	for i := 0; i < 4; i++ {
		if len(mustDataNode(t, nn, cluster.NodeID(i)).StoredBlocks()) != 0 {
			t.Fatalf("failed create leaked replicas on node %d", i)
		}
	}
}

func TestInjectedTransientFaultsAreRetried(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	data := bytes.Repeat([]byte("transient!"), 10)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}
	nn.SetFaultInjector(&stubFaults{failGets: 2})
	defer nn.SetFaultInjector(nil)
	cl.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatalf("transient injected faults should be retried away: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes after retry")
	}
}

func TestCheckConsistencyDetectsViolations(t *testing.T) {
	nn, cl := resilienceFixture(t, 4)
	cl.Replication = 2
	data := bytes.Repeat([]byte("invariant!"), 10)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatalf("fresh file should be consistent: %v", err)
	}
	// Simulate the bug class the checker exists for: a replica
	// deleted while still referenced by metadata.
	mustDataNode(t, nn, fm.Blocks[0].Replicas[0]).Delete(fm.Blocks[0].ID)
	if err := nn.CheckConsistency(context.Background()); err == nil {
		t.Fatal("checker missed a lost replica")
	}
}

// TestMaintenanceUnderConcurrentChurn guards the sync usage in dfs.go
// and heartbeat.go: repair, reads, redistribution, liveness churn, and
// heartbeat observation all race (run under -race), and once churn
// stops the file must heal back to full replication with its contents
// intact.
func TestMaintenanceUnderConcurrentChurn(t *testing.T) {
	nn, cl := resilienceFixture(t, 12)
	cl.Replication = 2
	cl.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond}
	data := bytes.Repeat([]byte("churnsoak!"), 120) // 12 blocks
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(f func(g *stats.RNG)) {
		wg.Add(1)
		g := cl.g.Split()
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f(g)
			}
		}()
	}
	hb := nn.Heartbeat()
	// Liveness churn: two goroutines flip random nodes, reporting the
	// churn to the heartbeat estimator like the chaos engine does.
	for w := 0; w < 2; w++ {
		worker(func(g *stats.RNG) {
			id := cluster.NodeID(g.IntN(12))
			if g.Float64() < 0.5 {
				_ = nn.SetNodeUp(id, false)
				_ = hb.ObserveInterruption(id, 4)
			} else {
				_ = nn.SetNodeUp(id, true)
				_ = hb.ObserveUptime(id, 10)
			}
		})
	}
	// Repair loop.
	mcl, err := NewClient(nn, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	mcl.Replication = cl.Replication
	mcl.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Microsecond}
	worker(func(*stats.RNG) {
		if _, err := mcl.MaintainReplication(context.Background(), "f", false); err != nil && !IsTransient(err) {
			t.Errorf("maintain: %v", err)
		}
	})
	// Reader loop: reads either succeed with intact bytes or fail
	// transiently.
	worker(func(*stats.RNG) {
		got, err := cl.ReadFileContext(context.Background(), "f")
		if err != nil {
			if !IsTransient(err) {
				t.Errorf("read: %v", err)
			}
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("read returned corrupt bytes")
			stop.Store(true)
		}
	})
	// Estimator consumers.
	worker(func(g *stats.RNG) {
		_ = hb.Estimate(cluster.NodeID(g.IntN(12)))
		_ = hb.Snapshot()
	})

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Churn over: everyone rejoins, the system must heal completely.
	for i := 0; i < 12; i++ {
		if err := nn.SetNodeUp(cluster.NodeID(i), true); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; ; round++ {
		rep, err := mcl.MaintainReplication(context.Background(), "f", false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Unrepairable > 0 {
			t.Fatalf("unrepairable blocks after churn stopped: %+v", rep)
		}
		if rep.Repaired == 0 {
			break
		}
		if round > 20 {
			t.Fatalf("replication did not converge: %+v", rep)
		}
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost under churn: %v", err)
	}
	fm, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) < cl.Replication {
			t.Fatalf("block %d below target replication: %v", bm.Index, bm.Replicas)
		}
	}
}
