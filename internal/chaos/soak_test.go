package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestChurnSoak is the headline resilience test: 10k seeded chaos
// events against a 32-node DFS while clients read, write, repair, and
// redistribute concurrently (run it under -race). Invariants:
//
//   - no block whose holder survives is ever lost: every metadata
//     entry keeps pointing at stored, checksum-intact bytes
//     (NameNode.CheckConsistency), throughout and after the churn;
//   - reads either return exactly the written bytes or fail with a
//     transient, retryable error;
//   - once churn stops, MaintainReplication converges back to the
//     target replication degree and every file reads back intact.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped with -short")
	}
	const (
		nodes       = 32
		chaosEvents = 10000
		replication = 3
		files       = 3
	)
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: nodes, InterruptedRatio: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := dfs.NewNameNode(c)
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewRNG(20120618) // ICDCS'12 — any seed works; this one is pinned
	mkClient := func() *dfs.Client {
		cl, err := dfs.NewClient(nn, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		cl.BlockSize = 256
		cl.Replication = replication
		cl.Retry = dfs.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
		return cl
	}

	// Operation-level faults ride along with the liveness churn.
	faults, err := chaos.NewOpFaults(root.Split())
	if err != nil {
		t.Fatal(err)
	}
	faults.PutFailProb = 0.02
	faults.GetFailProb = 0.02
	faults.CorruptProb = 0.01
	faults.Counters = nn.Resilience()
	nn.SetFaultInjector(faults)

	engine, err := chaos.New(chaos.Config{Cluster: c, Target: nn}, root.Split())
	if err != nil {
		t.Fatal(err)
	}

	// Seed data: files[0..1] exist before the churn; the last one is
	// created mid-churn by the writer goroutine.
	content := make(map[string][]byte, files)
	name := func(i int) string { return fmt.Sprintf("/soak/f%d", i) }
	for i := 0; i < files; i++ {
		payload := bytes.Repeat([]byte(fmt.Sprintf("file%d-payload-", i)), 300)
		content[name(i)] = payload
	}
	setup := mkClient()
	for i := 0; i < files-1; i++ {
		if _, _, err := setup.CopyFromLocalReportContext(context.Background(), name(i), content[name(i)], i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}

	okRead := func(err error) bool {
		return dfs.IsTransient(err) || errors.Is(err, dfs.ErrFileNotFound)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f()
			}
		}()
	}
	// Readers: every successful read must return exactly the
	// written bytes; failures must be transient (or not-yet-created).
	for r := 0; r < 2; r++ {
		cl := mkClient()
		g := root.Split()
		spawn(func() {
			fn := name(g.IntN(files))
			got, err := cl.ReadFileContext(context.Background(), fn)
			if err != nil {
				if !okRead(err) {
					t.Errorf("read %s: non-transient failure: %v", fn, err)
					stop.Store(true)
				}
				return
			}
			if !bytes.Equal(got, content[fn]) {
				t.Errorf("read %s: corrupt bytes surfaced to the client", fn)
				stop.Store(true)
			}
		})
	}
	// Repair loop, availability-aware half the time.
	{
		cl := mkClient()
		g := root.Split()
		spawn(func() {
			fn := name(g.IntN(files))
			if _, err := cl.MaintainReplication(context.Background(), fn, g.Float64() < 0.5); err != nil && !okRead(err) {
				t.Errorf("maintain %s: %v", fn, err)
				stop.Store(true)
			}
		})
	}
	// Redistribution loop: adapt/rebalance abort cleanly under churn.
	{
		cl := mkClient()
		g := root.Split()
		spawn(func() {
			fn := name(g.IntN(files))
			var err error
			if g.Float64() < 0.5 {
				_, err = cl.Adapt(context.Background(), fn)
			} else {
				_, err = cl.Rebalance(context.Background(), fn)
			}
			if err != nil && !okRead(err) {
				t.Errorf("redistribute %s: %v", fn, err)
				stop.Store(true)
			}
		})
	}
	// Writer: creates the last file mid-churn (degraded writes are
	// fine; total failure must be transient and is retried next lap).
	{
		cl := mkClient()
		var created atomic.Bool
		spawn(func() {
			if created.Load() {
				time.Sleep(100 * time.Microsecond)
				return
			}
			fn := name(files - 1)
			if _, _, err := cl.CopyFromLocalReportContext(context.Background(), fn, content[fn], true); err != nil {
				if !dfs.IsTransient(err) && !errors.Is(err, dfs.ErrFileExists) {
					t.Errorf("create %s: %v", fn, err)
					stop.Store(true)
				}
				return
			}
			created.Store(true)
		})
	}

	// Drive the 10k-event churn schedule in batches, yielding real
	// time between batches so the workload goroutines interleave with
	// every churn phase, and checking the no-data-loss invariant
	// along the way.
	applied := 0
	for applied < chaosEvents && !stop.Load() {
		n, err := engine.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("churn schedule exhausted early")
		}
		applied += n
		if applied%1000 == 0 {
			if err := nn.CheckConsistency(context.Background()); err != nil {
				t.Fatalf("invariant violated after %d events: %v", applied, err)
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if applied != chaosEvents {
		t.Fatalf("applied %d chaos events, want %d", applied, chaosEvents)
	}

	// Churn over: every node recovers, injected faults stop.
	if err := engine.Quiesce(); err != nil {
		t.Fatal(err)
	}
	nn.SetFaultInjector(nil)
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatalf("invariant violated after quiesce: %v", err)
	}

	// Invariant: replication converges back to target.
	healer := mkClient()
	for i := 0; i < files; i++ {
		fn := name(i)
		for round := 0; ; round++ {
			rep, err := healer.MaintainReplication(context.Background(), fn, true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Unrepairable > 0 {
				t.Fatalf("%s: unrepairable blocks with every node up: %+v", fn, rep)
			}
			if rep.Repaired == 0 {
				break
			}
			if round > 50 {
				t.Fatalf("%s: replication did not converge: %+v", fn, rep)
			}
		}
		fm, err := nn.Stat(fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, bm := range fm.Blocks {
			if len(bm.Replicas) < replication {
				t.Fatalf("%s block %d: %d replicas after healing, want >= %d",
					fn, bm.Index, len(bm.Replicas), replication)
			}
		}
		got, err := healer.ReadFileContext(context.Background(), fn)
		if err != nil {
			t.Fatalf("%s unreadable after churn: %v", fn, err)
		}
		if !bytes.Equal(got, content[fn]) {
			t.Fatalf("%s: data lost under churn", fn)
		}
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := nn.Resilience().Snapshot()
	t.Logf("soak survived %d events over %.0f virtual seconds: %s", applied, engine.Now(), snap)
	if snap.InjectedFaults == 0 || snap.InjectedCorruptions == 0 {
		t.Fatalf("chaos did not bite: %s", snap)
	}
	if snap.ChecksumFailures == 0 {
		t.Fatalf("no corruption was detected by checksums: %s", snap)
	}
}
