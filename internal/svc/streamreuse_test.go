package svc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// streamGet reads one block as an owner that keeps nothing: whatever
// the stream parks is closed on return. It is the one-off read the
// stream tests drive against hand-rolled and live servers.
func streamGet(ctx context.Context, local string, faults TransportFaults, addr, peer string, id dfs.BlockID) ([]byte, error) {
	p := &streamPool{local: local, faults: faults}
	defer p.close()
	got, err := p.streamGet(ctx, addr, peer, id, nil)
	return got.Data, err
}

// reuseCluster boots an n-node loopback cluster with 4 KiB blocks and
// every block on every node (RF = n), so each put crosses every
// DataNode — as a chain head or a relay target — and registers cleanup.
func reuseCluster(t *testing.T, n int, brk BreakerConfig) *LocalCluster {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(11), nil, NameNodeConfig{BlockSize: 4096, Replication: n, Breaker: brk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	return lc
}

// idleTo counts the connections p has parked to addr.
func (p *streamPool) idleTo(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// served counts the connections s has accepted and not yet closed.
func (s *Server) served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// closeServed closes every connection s has accepted, the listener
// staying up: what a DataNode that restarted in place looks like to
// the owners of the connections it had parked.
func (s *Server) closeServed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		_ = nc.Close()
	}
}

// waitServed polls until s serves want connections.
func waitServed(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.served() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s serves %d connections, want %d", s.name, s.served(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamConnectionsAreReused: a hundred put+get pairs from one
// client, each put relayed across all three DataNodes, open at most
// maxIdleStreams+1 connections into any DataNode — not one per hop per
// block — and every byte reads back.
func TestStreamConnectionsAreReused(t *testing.T) {
	lc := reuseCluster(t, 3, BreakerConfig{})
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	data := payload(4 << 10)
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("f%03d", i)
		if _, _, err := cl.CopyFromLocal(ctx, name, data, true); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		got, err := cl.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %s: bytes differ from what was put", name)
		}
	}
	for _, dn := range lc.DNs {
		if n := dn.srv.accepted.Load(); n > maxIdleStreams+1 {
			t.Errorf("%s accepted %d connections for 100 put+get pairs, want <= %d", dn.srv.name, n, maxIdleStreams+1)
		}
	}
}

// TestStaleParkedConnectionsRedialUnseen: a DataNode drops every
// connection it serves while its listener stays up, so the client's
// parked connections to it and the other DataNodes' parked relays are
// all dead. The next call to it, read from it, relay into it and a
// whole put and get succeed at the first attempt: no retry, no
// failover, no breaker failure (one would open a threshold-1 breaker),
// every proxy up.
func TestStaleParkedConnectionsRedialUnseen(t *testing.T) {
	lc := reuseCluster(t, 3, BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	data := payload(3000)
	fm, _, err := cl.CopyFromLocal(ctx, "warm", data, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile(ctx, "warm"); err != nil {
		t.Fatal(err)
	}
	dp, err := cl.dataPathFor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	block := fm.Blocks[0].ID
	// Park a client connection to node 0 and a relay from node 1 to it.
	if _, err := dp.stores[0].Get(ctx, block, nil); err != nil {
		t.Fatal(err)
	}
	const scratch = dfs.BlockID(1 << 40)
	if res := dp.stores[1].PutChain(ctx, scratch, data, []cluster.NodeID{0}); len(res.Failed) != 0 {
		t.Fatalf("priming relay: %v", res.Failed)
	}
	// Node 1 parks its relay in a deferred call that runs after it has
	// acked upstream, so the park may trail PutChain's return.
	waitFor(t, func() bool {
		return dp.stores[0].conns.idleTo(lc.DNs[0].Addr()) != 0 && lc.DNs[1].conns.idleTo(lc.DNs[0].Addr()) != 0
	}, "a parked connection and a parked relay toward node 0 to go stale")

	dn0 := lc.DNs[0].srv
	base, accepted := cl.resilience(), dn0.accepted.Load()
	dn0.closeServed()
	waitServed(t, dn0, 0)

	wantSize, wantSum := int64(len(data)), fm.Blocks[0].Checksum
	if size, sum, err := dp.stores[0].StoredSum(ctx, block); err != nil || size != wantSize || sum != wantSum {
		t.Fatalf("dn.stored on a stale parked connection: size %d, sum %08x, %v", size, sum, err)
	}
	// The call's redial is what is parked now: make it stale too.
	dn0.closeServed()
	waitServed(t, dn0, 0)
	if got, err := dp.stores[0].Get(ctx, block, nil); err != nil || !bytes.Equal(got.Data, data) {
		t.Fatalf("read on a stale parked connection: %v", err)
	}
	if res := dp.stores[1].PutChain(ctx, scratch+1, data, []cluster.NodeID{0}); len(res.Failed) != 0 || len(res.Acked) != 2 {
		t.Fatalf("relay on a stale parked connection: acked %v, failed %v", res.Acked, res.Failed)
	}
	if dn0.accepted.Load()-accepted < 3 {
		t.Fatalf("node 0 accepted %d fresh connections, want the call's, the read's and the relay's redial", dn0.accepted.Load()-accepted)
	}
	dn0.closeServed()
	if _, _, err := cl.CopyFromLocal(ctx, "after", data, true); err != nil {
		t.Fatalf("put after node 0 dropped its connections: %v", err)
	}
	if got, err := cl.ReadFile(ctx, "after"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after node 0 dropped its connections: %v", err)
	}

	if got := cl.resilience(); got != base {
		t.Fatalf("resilience moved: %+v -> %+v", base, got)
	}
	if opens := cl.breakerStats().Opens.Load(); opens != 0 {
		t.Fatalf("%d breakers opened on stale connections", opens)
	}
	for _, st := range dp.stores {
		if !st.Up() || st.brk.State() != BreakerClosed {
			t.Fatalf("proxy %d: up %v, breaker %v", st.id, st.Up(), st.brk.State())
		}
	}
	for _, s := range []dfs.BlockID{scratch, scratch + 1} {
		lc.DNs[0].Node().Delete(s)
		lc.DNs[1].Node().Delete(s)
	}
}

// partitionAt partitions an endpoint on the hook's nth consult, so a
// stream whose setup passed the gate is severed between chunks.
type partitionAt struct {
	*chaos.NetFaults
	endpoint string
	at       int64
	n        atomic.Int64
}

func (p *partitionAt) FailMessage(from, to string) error {
	if p.n.Add(1) == p.at {
		p.Partition(p.endpoint)
	}
	return p.NetFaults.FailMessage(from, to)
}

// TestFailedStreamsParkNothing: a stream that ends any way but cleanly
// — a hedged read's loser, a partition between chunks, a shed setup
// ack, a block_not_found error frame — parks nothing, closes its
// connection at both ends. A clean
// stream afterwards parks one, so the check can see parking.
func TestFailedStreamsParkNothing(t *testing.T) {
	lc := reuseCluster(t, 1, BreakerConfig{})
	dn := lc.DNs[0]
	addr, peer := dn.Addr(), endpointName(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := &streamPool{local: "tester"}
	defer p.close()
	served := dn.srv.served()

	check := func(what string) {
		t.Helper()
		if n := p.idleTo(addr); n != 0 {
			t.Fatalf("%s: %d connections parked", what, n)
		}
		waitServed(t, dn.srv, served)
	}

	// The loser of a hedged read: its context is cancelled mid-stream by
	// the winner. A stall server announces three chunks and sends one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stalled := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(nc)
		f, err := readFrame2(br, nil)
		if err != nil {
			return
		}
		_ = writeFrame2(nc, frameReadHdr, 0, f.Stream, readHdr{Size: 3 * DefaultChunkSize}.appendWire(nil))
		_ = writeFrame2(nc, frameChunk, 0, f.Stream, make([]byte, DefaultChunkSize))
		stalled <- nc
	}()
	loser, lose := context.WithCancel(ctx)
	go func() {
		nc := <-stalled
		lose()
		_, _ = nc.Read(make([]byte, 1)) // held open until the loser hangs up
		_ = nc.Close()
	}()
	if _, err := p.streamGet(loser, ln.Addr().String(), "stall-dn", 7, nil); err == nil {
		t.Fatal("a cancelled read succeeded")
	}
	if n := p.idleTo(ln.Addr().String()); n != 0 {
		t.Fatalf("hedge loser: %d connections parked", n)
	}

	// A partition between the first and second chunk of a three-chunk
	// block: the gate is consult 1, the first chunk 2.
	faults, err := chaos.NewNetFaults(stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	p.faults = &partitionAt{NetFaults: faults, endpoint: peer, at: 3}
	big := payload(3 * DefaultChunkSize)
	if _, _, err := p.pipelinePut(ctx, []chainEntry{{Node: 0, Addr: addr}}, 90, big); err == nil {
		t.Fatal("a put partitioned mid-stream succeeded")
	}
	p.faults = nil
	if _, _, ok := dn.Node().StoredSum(90); ok {
		t.Fatal("a partitioned stream committed its block")
	}
	check("mid-stream partition")

	// A shed setup ack: one slot, held, and a full wait queue.
	dn.SetAdmission(AdmissionConfig{MaxInflight: 1, Queue: 1})
	adm := dn.Admission()
	hold, err := adm.acquire(ctx, classPut)
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(ctx)
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if release, err := adm.acquire(qctx, classPut); err == nil {
			release()
		}
	}()
	for adm.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	acks, _, err := p.pipelinePut(ctx, []chainEntry{{Node: 0, Addr: addr}}, 91, payload(100))
	qcancel()
	hold()
	<-queued
	dn.SetAdmission(AdmissionConfig{})
	if err != nil || len(acks) != 1 || acks[0].OK || !errors.Is(acks[0].err(), dfs.ErrOverload) {
		t.Fatalf("shed put: acks %+v, err %v; want one overload entry", acks, err)
	}
	check("shed setup ack")

	// An error frame: the block is not there.
	if _, err := p.streamGet(ctx, addr, peer, 92, nil); !errors.Is(err, dfs.ErrBlockNotFound) {
		t.Fatalf("read of a missing block: %v, want ErrBlockNotFound", err)
	}
	check("block_not_found error frame")

	// A clean stream parks its connection.
	if _, _, err := p.pipelinePut(ctx, []chainEntry{{Node: 0, Addr: addr}}, 93, payload(100)); err != nil {
		t.Fatal(err)
	}
	if n := p.idleTo(addr); n != 1 {
		t.Fatalf("a clean stream parked %d connections, want 1", n)
	}
}

// TestShutdownSkipsParkedStreamConnections: a DataNode whose only
// connections are parked between streams has nothing in flight, so
// Shutdown closes them at once instead of waiting out its drain
// context.
func TestShutdownSkipsParkedStreamConnections(t *testing.T) {
	lc := reuseCluster(t, 2, BreakerConfig{})
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := cl.CopyFromLocal(ctx, "f", payload(3000), true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	srv := lc.DNs[0].srv
	if srv.served() == 0 {
		t.Fatal("no parked connection to shut down around")
	}
	t0 := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("shutdown took %v with only parked connections", took)
	}
	waitServed(t, srv, 0)
}

// TestStreamOwnersLeaveNoGoroutines: once the client, the DataNodes and
// the NameNode are closed, no goroutine is left serving or holding a
// parked connection.
func TestStreamOwnersLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := cluster.New(make([]cluster.Node, 3))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(3), nil, NameNodeConfig{BlockSize: 4096, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := lc.Client("shell")
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, _, err := cl.CopyFromLocal(ctx, name, payload(5000), true); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReadFile(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	if err := lc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+slack {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after close, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCallsAndStreamsShareOneConnection: a DataNode proxy's block
// streams and its dn.* calls ride one parked connection, one exchange
// after another — a write, a call, a read, two more calls — so the node
// accepts one connection for all five.
func TestCallsAndStreamsShareOneConnection(t *testing.T) {
	dn := NewDataNodeServer(0, nil)
	if err := dn.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer func() { _ = dn.Stop(ctx) }()
	stores, _, _ := newStoreFleet([]string{dn.Addr()}, "tester", nil, BreakerConfig{}, nil)
	st := stores[0]
	defer st.close()

	data := payload(3000)
	if res := st.PutChain(ctx, 5, data, nil); len(res.Failed) != 0 {
		t.Fatalf("put: %v", res.Failed)
	}
	if size, sum, err := st.StoredSum(ctx, 5); err != nil || size != int64(len(data)) || sum != dfs.Checksum(data) {
		t.Fatalf("dn.stored: size %d, sum %08x, %v", size, sum, err)
	}
	if got, err := st.Get(ctx, 5, nil); err != nil || !bytes.Equal(got.Data, data) {
		t.Fatalf("get: %v", err)
	}
	if blocks, ok := st.StoredBlocks(ctx); !ok || len(blocks) != 1 || blocks[0] != 5 {
		t.Fatalf("dn.blocks: %v, ok %v", blocks, ok)
	}
	if err := st.Delete(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if n := dn.srv.accepted.Load(); n != 1 {
		t.Fatalf("the node accepted %d connections for a proxy's streams and calls, want 1", n)
	}
	if n := st.conns.idleTo(dn.Addr()); n != 1 {
		t.Fatalf("%d connections parked, want 1", n)
	}
}

// parkedPool returns a pool with one loopback TCP connection parked
// under addr; the test's cleanup closes both ends.
func parkedPool(t *testing.T, faults TransportFaults, addr string) *streamPool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	p := &streamPool{local: "client", faults: faults}
	dc := &dataConn{nc: a, br: bufio.NewReaderSize(a, streamReadBuf), bw: bufio.NewWriterSize(a, 32<<10)}
	dc.arm(context.Background())
	p.park(addr, dc, true)
	if len(p.idle[addr]) != 1 {
		t.Fatal("the connection was not parked")
	}
	return p
}

// TestParkedAcquireDerivesNoSetupBudget: taking a parked connection
// with no fault hook installed neither gates nor dials, so it derives
// no setup context: the only allocation left is arming the connection
// on the exchange's context.
func TestParkedAcquireDerivesNoSetupBudget(t *testing.T) {
	const addr = "127.0.0.1:9"
	p := parkedPool(t, nil, addr)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	allocs := testing.AllocsPerRun(100, func() {
		dc, reused, err := p.acquireConn(ctx, addr, "dn", false)
		if err != nil || !reused {
			t.Fatalf("acquire: reused %v, %v", reused, err)
		}
		p.park(addr, dc, true)
	})
	if allocs > 3 {
		t.Fatalf("parked acquire allocates %.0f times, want at most 3 (arming alone)", allocs)
	}
}

// stallGate holds every message for an hour.
type stallGate struct{}

func (stallGate) FailMessage(from, to string) error          { return nil }
func (stallGate) MessageDelay(from, to string) time.Duration { return time.Hour }

// TestStalledGateFailsAtItsSetupBudget: a fault gate that stalls past
// a quarter of the exchange's deadline fails the exchange at that
// quarter, leaving the caller's own context live with the rest of its
// budget for an alternate.
func TestStalledGateFailsAtItsSetupBudget(t *testing.T) {
	const addr = "127.0.0.1:9"
	p := parkedPool(t, stallGate{}, addr)
	const budget = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	_, _, err := p.acquireConn(ctx, addr, "dn", false)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled gate: err = %v, want DeadlineExceeded", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("the stalled gate spent the caller's whole budget (%v)", elapsed)
	}
	if elapsed < budget/4-50*time.Millisecond || elapsed > budget/2 {
		t.Fatalf("stalled gate failed after %v, want about a quarter of %v", elapsed, budget)
	}
}
