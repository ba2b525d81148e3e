package dfs

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// TestRefreshBesidePlacement folds heartbeats and refreshes the
// availability in a loop while ADAPT writes and repair passes read the
// placement weights. Under -race it proves that no reader of
// availability needs a lock: a refresh publishes a new snapshot and
// never writes the one a placement is reading.
func TestRefreshBesidePlacement(t *testing.T) {
	const nodes = 8
	nn, writer := testClient(t, nodes, 100)
	writer.Replication = 2
	repairer, err := NewClient(nn, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.CopyFromLocalReportContext(context.Background(), "/base", payload(1000), true); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := cluster.NodeID(i % nodes)
			if err := observeCycle(nn.Heartbeat(), id, float64(1+i%7), float64(i%3)); err != nil {
				t.Error(err)
				return
			}
			nn.RefreshAvailability()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := repairer.MaintainReplication(context.Background(), "/base", true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, _, err := writer.CopyFromLocalReportContext(context.Background(), fmt.Sprintf("/f%d", i), payload(300), true); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshLeavesLoadedSnapshot: a *Cluster loaded before a refresh
// reads exactly as it did; the refresh shows up only in the snapshot
// loaded after it.
func TestRefreshLeavesLoadedSnapshot(t *testing.T) {
	nn, _ := testClient(t, 4, 100)
	before := nn.Cluster()
	want := before.Nodes()
	if err := observeCycle(nn.Heartbeat(), 0, 90, 10); err != nil {
		t.Fatal(err)
	}
	if n := nn.RefreshAvailability(); n != 1 {
		t.Fatalf("refresh changed %d nodes, want 1", n)
	}
	for i, got := range before.Nodes() {
		if got != want[i] {
			t.Fatalf("node %d of the loaded snapshot changed: %+v, was %+v", i, got, want[i])
		}
	}
	after := nn.Cluster()
	if after == before {
		t.Fatal("refresh published nothing")
	}
	if got, est := after.Node(0).Availability, nn.Heartbeat().Estimate(0); got != est {
		t.Fatalf("published node 0 = %+v, want the estimate %+v", got, est)
	}
	if n := nn.RefreshAvailability(); n != 0 {
		t.Fatalf("a refresh with nothing new changed %d nodes", n)
	}
}

// TestConcurrentRefreshesPublishTheLatest: refreshes racing each other
// never leave an older estimate published over a newer one, so once
// they are done every node carries the estimator's current value.
func TestConcurrentRefreshesPublishTheLatest(t *testing.T) {
	const nodes, workers, rounds = 8, 4, 200
	nn, _ := testClient(t, nodes, 100)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := cluster.NodeID((w + i) % nodes)
				if err := observeCycle(nn.Heartbeat(), id, float64(1+i%5), float64(w+1)); err != nil {
					t.Error(err)
					return
				}
				nn.RefreshAvailability()
			}
		}(w)
	}
	wg.Wait()
	c := nn.Cluster()
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID(i)
		if got, want := c.Node(id).Availability, nn.Heartbeat().Estimate(id); got != want {
			t.Errorf("node %d published %+v, estimator holds %+v", i, got, want)
		}
	}
}

// observeCycle records one up span followed by one outage, as the
// NameNode's heartbeat fold sees a node that ran, vanished and rejoined.
func observeCycle(h *cluster.HeartbeatEstimator, id cluster.NodeID, up, down float64) error {
	if err := h.ObserveUptime(id, up); err != nil {
		return err
	}
	return h.ObserveInterruption(id, down)
}
