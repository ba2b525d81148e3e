package svc

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// folded returns the sequence number and cumulative uptime of the last
// heartbeat the NameNode folded for node id.
func folded(s *NameNodeServer, id cluster.NodeID) (seq uint64, uptime float64) {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if st, ok := s.hb[id]; ok {
		return st.seq, st.uptime
	}
	return 0, 0
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
// ships beats whose cumulative uptime grows, and Stop returns promptly
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
	// them, each with more uptime than the one before.
	lc.DNs[0].StartHeartbeats(10 * time.Millisecond)
	var lastSeq uint64
	var lastUptime float64
	beats := 0
	for deadline := time.Now().Add(10 * time.Second); beats < 3; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("NameNode folded %d beats from the loop in 10s, want 3", beats)
		}
		seq, uptime := folded(lc.NN, 0)
		if seq == lastSeq {
			continue
		}
		if uptime <= lastUptime {
			t.Fatalf("beat %d carries uptime %g, not above the previous %g", seq, uptime, lastUptime)
		}
		lastSeq, lastUptime = seq, uptime
		beats++
	}

	// A crashed NameNode refuses the loop's beats and the final flush:
	// Stop must not wait for anything.
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
