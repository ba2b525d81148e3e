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

	// The default detector: suspect after 3 s, dead after 10 s.
	// Nodes that have never heartbeated are not judged: the cluster
	// may still be booting.
	lc.NN.TickDetector()
	if n := len(lc.NN.DetectorStates()); n != 0 {
		t.Fatalf("judged %d nodes before any heartbeat", n)
	}

	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	lc.NN.TickDetector()
	for id, st := range lc.NN.DetectorStates() {
		if st != NodeAlive {
			t.Fatalf("node %d = %v after fresh beat, want alive", id, st)
		}
	}

	backdateBeat(lc.NN, 2, now.Add(-5*time.Second))
	lc.NN.TickDetector()
	if st := lc.NN.DetectorStates()[2]; st != NodeSuspect {
		t.Fatalf("node 2 = %v after 5s silence, want suspect", st)
	}
	if !lc.NN.stores[2].Up() {
		t.Fatal("suspect node marked down; only dead should flip the belief")
	}

	backdateBeat(lc.NN, 2, now.Add(-30*time.Second))
	lc.NN.TickDetector()
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
	lc.NN.TickDetector()
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

	backdateBeat(lc.NN, victim, time.Now().Add(-time.Minute))
	lc.NN.TickDetector()
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

// TestHeartbeatEpochRebaseline: a DataNode restart is the paper's
// interruption. The new incarnation's epoch resets the sequence
// numbers the NameNode expects, and its first beat ends exactly one
// interruption whose downtime is the silence before it — counted for
// the new epoch even though the silence is shorter than SuspectAfter.
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
	clk := newFakeClock()
	setClock(lc, clk.now)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	beat := func() {
		t.Helper()
		if err := lc.DNs[0].FlushHeartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The first incarnation beats twice, one second apart.
	beat()
	clk.advance(time.Second)
	beat()

	// The host is interrupted for 2 s: it sends nothing while down,
	// and comes back as a new incarnation with seq starting over.
	if err := lc.SetNodeUp(0, false); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	beat()
	if seq := folded(lc.NN, 0); seq != 2 {
		t.Fatalf("an interrupted node's beat was folded: seq %d, want 2", seq)
	}
	if err := lc.SetNodeUp(0, true); err != nil {
		t.Fatal(err)
	}
	beat()
	if seq := folded(lc.NN, 0); seq != 1 {
		t.Fatalf("the restarted node's first beat folded as seq %d, want 1", seq)
	}
	if sec, n := observed(lc, 0); sec != 3 || n != 1 {
		t.Fatalf("restart observed (%g s, %d), want 1 s up + 2 s down over one interruption", sec, n)
	}
	clk.advance(time.Second)
	beat()
	if sec, n := observed(lc, 0); sec != 4 || n != 1 {
		t.Fatalf("the new incarnation's second beat observed (%g s, %d), want (4, 1)", sec, n)
	}

	// Within an epoch the stale protection still holds, and a new
	// epoch resets it.
	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 1, Epoch: 7, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	err = lc.NN.foldHeartbeat(heartbeatParams{Node: 1, Epoch: 7, Seq: 5})
	if !errors.Is(err, ErrStaleHeartbeat) {
		t.Fatalf("same-epoch replay accepted: %v", err)
	}
	if err := lc.NN.foldHeartbeat(heartbeatParams{Node: 1, Epoch: 9, Seq: 1}); err != nil {
		t.Fatalf("new-epoch beat rejected: %v", err)
	}
}

// TestInterruptedDataNodeStaysDead: an interrupted DataNode sends no
// heartbeat, so once the detector has declared it dead a flush cannot
// revive the NameNode's belief while the node still refuses blocks.
func TestInterruptedDataNodeStaysDead(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 3))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(64), nil, NameNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	clk := newFakeClock()
	setClock(lc, clk.now)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lc.SetNodeUp(1, false); err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Second)
	for _, id := range []cluster.NodeID{0, 2} {
		if err := lc.DNs[id].FlushHeartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	lc.NN.TickDetector()
	if st := lc.NN.DetectorStates()[1]; st != NodeDead || lc.NN.stores[1].Up() {
		t.Fatalf("interrupted node 1 = %v (believed up %v), want dead", st, lc.NN.stores[1].Up())
	}
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	if st := lc.NN.DetectorStates()[1]; st != NodeDead || lc.NN.stores[1].Up() {
		t.Fatalf("a flush revived interrupted node 1: %v (believed up %v)", st, lc.NN.stores[1].Up())
	}
}

// TestDetectorRejectsDeadAfterAtOrBelowSuspect: a DeadAfter that a
// silent node would reach no later than SuspectAfter is a
// misconfiguration NewNameNodeServer reports, not one it replaces with
// the default; zero still takes the default.
func TestDetectorRejectsDeadAfterAtOrBelowSuspect(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []DetectorConfig{
		{DeadAfter: 2 * time.Second}, // below the default 3 s suspect
		{SuspectAfter: 5 * time.Second, DeadAfter: 5 * time.Second},
		{DeadAfter: -time.Second},
	} {
		_, err := NewNameNodeServer(c, []string{"127.0.0.1:1"}, stats.NewRNG(1), nil, NameNodeConfig{Detector: det})
		if !errors.Is(err, errBadDetector) {
			t.Errorf("%+v: err = %v, want a dead-after error", det, err)
		}
	}
	for _, tc := range []struct{ in, want DetectorConfig }{
		{DetectorConfig{}, DetectorConfig{SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second}},
		{DetectorConfig{SuspectAfter: 20 * time.Second}, DetectorConfig{SuspectAfter: 20 * time.Second, DeadAfter: 60 * time.Second}},
		{DetectorConfig{DeadAfter: 4 * time.Second}, DetectorConfig{SuspectAfter: 3 * time.Second, DeadAfter: 4 * time.Second}},
	} {
		got := tc.in
		if err := got.defaults(); err != nil || got != tc.want {
			t.Errorf("defaults(%+v) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}
