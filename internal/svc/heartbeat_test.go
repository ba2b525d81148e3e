package svc

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// folded returns the sequence number of the last heartbeat the
// NameNode folded for node id.
func folded(s *NameNodeServer, id cluster.NodeID) uint64 {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if st, ok := s.hb[id]; ok {
		return st.seq
	}
	return 0
}

// setClock installs now as the NameNode's one clock. Call it before
// any traffic: the Addr call takes the server lock that its accept
// loop takes for every new connection, so each handler sees the swap.
func setClock(lc *LocalCluster, now func() time.Time) {
	lc.NN.now = now
	_ = lc.NN.Addr()
}

// observed reads what the NameNode's estimator holds for node id.
func observed(lc *LocalCluster, id cluster.NodeID) (seconds float64, interruptions int64) {
	return lc.Engine().Heartbeat().Observed(id)
}

// hungNameNode accepts connections and reads what arrives but never
// answers: a NameNode host that is suspended, not gone. Each first read
// on a connection is signalled on inflight.
type hungNameNode struct {
	ln       net.Listener
	inflight chan struct{}
	mu       sync.Mutex
	conns    []net.Conn
}

func startHungNameNode(t *testing.T) *hungNameNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &hungNameNode{ln: ln, inflight: make(chan struct{}, 16)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			h.mu.Lock()
			h.conns = append(h.conns, c)
			h.mu.Unlock()
			go func() {
				buf := make([]byte, 4096)
				signalled := false
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if !signalled {
						signalled = true
						h.inflight <- struct{}{}
					}
				}
			}()
		}
	}()
	t.Cleanup(h.close)
	return h
}

func (h *hungNameNode) close() {
	_ = h.ln.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.conns {
		_ = c.Close()
	}
}

// TestHeartbeatLoop drives serve-datanode's heartbeat path: the loop
// ships beats the NameNode folds in order, and Stop returns promptly
// whether the NameNode is gone or hung mid-beat.
func TestHeartbeatLoop(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 2))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(5), nil, NameNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	hung := startHungNameNode(t)

	// Node 0 beats every 10ms; the NameNode must fold at least three of
	// them, in order, and measure the up spans between them itself.
	lc.DNs[0].StartHeartbeats(10 * time.Millisecond)
	var lastSeq uint64
	beats := 0
	for deadline := time.Now().Add(10 * time.Second); beats < 3; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("NameNode folded %d beats from the loop in 10s, want 3", beats)
		}
		seq := folded(lc.NN, 0)
		if seq == lastSeq {
			continue
		}
		if seq < lastSeq {
			t.Fatalf("folded beat %d after beat %d", seq, lastSeq)
		}
		lastSeq = seq
		beats++
	}
	if sec, n := observed(lc, 0); sec <= 0 || n != 0 {
		t.Fatalf("observed (%g s, %d interruptions) from on-time beats, want uptime and none", sec, n)
	}

	// A crashed NameNode refuses the loop's beats: Stop must not wait
	// for anything.
	lc.CrashNameNode()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = lc.DNs[0].Stop(ctx)
	cancel()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Stop with the NameNode crashed took %v", d)
	}

	// A hung NameNode holds a beat until its per-beat timeout, one
	// interval. Stop cancels that beat instead of waiting it out, so
	// it returns once its own context ends, well inside the interval.
	const interval = time.Second
	lc.DNs[1].ConnectNameNode(hung.ln.Addr().String())
	lc.DNs[1].StartHeartbeats(interval)
	select {
	case <-hung.inflight:
	case <-time.After(10 * time.Second):
		t.Fatal("the heartbeat loop never reached the hung NameNode")
	}
	start = time.Now()
	ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
	_ = lc.DNs[1].Stop(ctx)
	cancel()
	if d := time.Since(start); d > interval/2 {
		t.Fatalf("Stop with a beat hung on the NameNode took %v, want well under the %v per-beat timeout", d, interval)
	}
}

// TestSilenceCountingRule pins what the NameNode counts between beats
// of one incarnation, on a virtual clock: a silence shorter than
// SuspectAfter is uptime, and a partition that silences a node for at
// least SuspectAfter and ends in a beat is one interruption whose
// downtime is the whole silence.
func TestSilenceCountingRule(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(make([]cluster.Node, 2))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(10), nf, NameNodeConfig{
		Detector: DetectorConfig{SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second},
	})
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
	beat := func() error { return lc.DNs[1].FlushHeartbeat(ctx) }

	// The first beat only sets the baseline.
	if err := beat(); err != nil {
		t.Fatal(err)
	}
	if sec, n := observed(lc, 1); sec != 0 || n != 0 {
		t.Fatalf("the first beat observed (%g s, %d), want nothing", sec, n)
	}

	// 2 s of silence, under SuspectAfter: uptime, no interruption.
	clk.advance(2 * time.Second)
	if err := beat(); err != nil {
		t.Fatal(err)
	}
	if sec, n := observed(lc, 1); sec != 2 || n != 0 {
		t.Fatalf("a 2 s silence observed (%g s, %d), want (2, 0)", sec, n)
	}

	// A partition swallows beats for 9 s; the first beat after it heals
	// ends one interruption of 9 s.
	nf.Partition(endpointName(1))
	clk.advance(5 * time.Second)
	if err := beat(); err == nil {
		t.Fatal("a beat crossed the partition")
	}
	clk.advance(4 * time.Second)
	nf.Heal(endpointName(1))
	if err := beat(); err != nil {
		t.Fatal(err)
	}
	if sec, n := observed(lc, 1); sec != 11 || n != 1 {
		t.Fatalf("a 9 s partition observed (%g s, %d), want (11, 1)", sec, n)
	}

	// One more on-time beat: 3 s up and 9 s down over one outage give
	// λ̂ = 1/3 and μ̂ = (9/12)/λ̂ = 2.25.
	clk.advance(time.Second)
	if err := beat(); err != nil {
		t.Fatal(err)
	}
	est := lc.Engine().Heartbeat().Estimate(1)
	if math.Abs(est.Lambda-1.0/3) > 1e-12 || math.Abs(est.Mu-2.25) > 1e-12 {
		t.Fatalf("estimate %+v, want λ 1/3, μ 2.25", est)
	}
	if _, n := observed(lc, 0); n != 0 {
		t.Fatalf("node 0, which never beat, has %d interruptions", n)
	}
}
