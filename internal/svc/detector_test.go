package svc

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// backdateBeat rewrites one node's last-heartbeat instant so detector
// tests can age heartbeats without waiting out wall clocks.
func backdateBeat(s *NameNodeServer, id cluster.NodeID, to time.Time) {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if st, ok := s.hb[id]; ok {
		st.lastBeat = to
	}
}

// TestFailureDetectorPromotesSilentNodes walks one node through
// Alive → Suspect → Dead on heartbeat age and back to Alive on the
// next beat, checking the liveness belief flips with it.
func TestFailureDetectorPromotesSilentNodes(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 3))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(61), nil, NameNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfg := DetectorConfig{SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second}

	// Nodes that have never heartbeated are not judged: the cluster
	// may still be booting.
	lc.NN.TickDetector(cfg, time.Now())
	if n := len(lc.NN.DetectorStates()); n != 0 {
		t.Fatalf("judged %d nodes before any heartbeat", n)
	}

	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	lc.NN.TickDetector(cfg, now)
	for id, st := range lc.NN.DetectorStates() {
		if st != NodeAlive {
			t.Fatalf("node %d = %v after fresh beat, want alive", id, st)
		}
	}

	backdateBeat(lc.NN, 2, now.Add(-5*time.Second))
	lc.NN.TickDetector(cfg, now)
	if st := lc.NN.DetectorStates()[2]; st != NodeSuspect {
		t.Fatalf("node 2 = %v after 5s silence, want suspect", st)
	}
	if !lc.NN.stores[2].Up() {
		t.Fatal("suspect node marked down; only dead should flip the belief")
	}

	backdateBeat(lc.NN, 2, now.Add(-30*time.Second))
	lc.NN.TickDetector(cfg, now)
	if st := lc.NN.DetectorStates()[2]; st != NodeDead {
		t.Fatalf("node 2 = %v after 30s silence, want dead", st)
	}
	if lc.NN.stores[2].Up() {
		t.Fatal("dead node still believed up")
	}
	if got := lc.NN.Engine().Resilience().Snapshot().NodesDeclaredDead; got != 1 {
		t.Fatalf("nodes declared dead = %d, want 1", got)
	}
	// Re-ticking an already-dead node must not re-count it.
	lc.NN.TickDetector(cfg, now)
	if got := lc.NN.Engine().Resilience().Snapshot().NodesDeclaredDead; got != 1 {
		t.Fatalf("dead node re-counted: %d", got)
	}

	// Any heartbeat revives straight to Alive, and the belief flips up.
	if err := lc.DNs[2].FlushHeartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if st := lc.NN.DetectorStates()[2]; st != NodeAlive {
		t.Fatalf("node 2 = %v after revival beat, want alive", st)
	}
	if !lc.NN.stores[2].Up() {
		t.Fatal("revived node still believed down")
	}
}

// TestDeadNodeTriggersRepair: declaring a replica-holding node dead
// and running one repair scan must restore every block to full
// replication on the surviving nodes — the availability-aware repair
// path, driven by the detector's belief flip.
func TestDeadNodeTriggersRepair(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 4))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(62), nil, NameNodeConfig{BlockSize: 256, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := lc.Client("shell")
	defer cl.Close()
	if _, _, err := cl.CopyFromLocal(ctx, "f", durablePayload(9, 2048), false); err != nil {
		t.Fatal(err)
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	victim := cluster.NodeID(-1)
	for id, n := range counts {
		if n > 0 {
			victim = cluster.NodeID(id)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node holds a replica")
	}

	cfg := DetectorConfig{SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second}
	now := time.Now()
	backdateBeat(lc.NN, victim, now.Add(-time.Minute))
	lc.NN.TickDetector(cfg, now)
	if lc.NN.stores[victim].Up() {
		t.Fatalf("victim %d still believed up", victim)
	}
	health := lc.NN.Engine().Health()
	if health.UnderReplicated == 0 {
		t.Fatal("killing a replica holder left nothing under-replicated")
	}

	repaired := lc.NN.RepairScan()
	if repaired == 0 {
		t.Fatal("repair scan fixed nothing")
	}
	health = lc.NN.Engine().Health()
	if health.UnderReplicated != 0 || health.Unavailable != 0 {
		t.Fatalf("post-repair health: %d under-replicated, %d unavailable",
			health.UnderReplicated, health.Unavailable)
	}
	rs := lc.NN.Engine().Resilience().Snapshot()
	if rs.RepairScans < 1 {
		t.Fatalf("repair scans counter = %d, want >= 1", rs.RepairScans)
	}
	if rs.RepairedReplicas < int64(repaired) {
		t.Fatalf("repaired replicas counter = %d < scan total %d", rs.RepairedReplicas, repaired)
	}
}

// TestHeartbeatEpochRebaseline: a restarted DataNode announces a new
// epoch, so its reset sequence numbers and zeroed totals must fold as
// a fresh baseline instead of being rejected forever — the bug this
// PR fixes.
func TestHeartbeatEpochRebaseline(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 2))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(63), nil, NameNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First incarnation ships some observations.
	if err := lc.DNs[0].ObserveUptime(50); err != nil {
		t.Fatal(err)
	}
	if err := lc.DNs[0].FlushHeartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lc.DNs[0].FlushHeartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	// The process "restarts": a fresh incarnation of the same node id,
	// epoch new, seq back to 1, totals back to zero.
	fresh := NewDataNodeServer(0, nil)
	fresh.ConnectNameNode(lc.NN.Addr())
	t.Cleanup(func() { fresh.peer().close() })
	if err := fresh.ObserveUptime(5); err != nil {
		t.Fatal(err)
	}
	if err := fresh.FlushHeartbeat(ctx); err != nil {
		t.Fatalf("restarted datanode's first beat rejected: %v", err)
	}
	if err := fresh.FlushHeartbeat(ctx); err != nil {
		t.Fatalf("restarted datanode's second beat rejected: %v", err)
	}

	// Within an epoch the stale/backwards protections still hold.
	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 1, Epoch: 7, Seq: 5, Uptime: 100}); err != nil {
		t.Fatal(err)
	}
	err = lc.NN.foldHeartbeat(heartbeatParams{Node: 1, Epoch: 7, Seq: 5, Uptime: 120})
	if !errors.Is(err, ErrStaleHeartbeat) {
		t.Fatalf("same-epoch replay accepted: %v", err)
	}
	// A new epoch resets both seq and totals.
	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 1, Epoch: 9, Seq: 1, Uptime: 10}); err != nil {
		t.Fatalf("new-epoch beat rejected: %v", err)
	}
}
