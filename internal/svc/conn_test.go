package svc

import (
	"bufio"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// rawPeer speaks frames by hand over one connection, for the things a
// well-behaved call or stream never sends.
type rawPeer struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawPeer{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (p *rawPeer) send(typ uint8, flags uint16, id uint64, payload []byte) {
	p.t.Helper()
	if err := writeFrame2(p.nc, typ, flags, id, payload); err != nil {
		p.t.Fatal(err)
	}
}

// recv reads one frame of the wanted type and returns its payload.
func (p *rawPeer) recv(want uint8) []byte {
	p.t.Helper()
	f, err := readFrame2(p.br, nil)
	if err != nil {
		p.t.Fatalf("waiting for frame type %d: %v", want, err)
	}
	if f.Type != want {
		p.t.Fatalf("frame type %d (payload %q), want %d", f.Type, f.Payload, want)
	}
	return f.Payload
}

// closed asserts the peer hung up without another frame.
func (p *rawPeer) closed() {
	p.t.Helper()
	if f, err := readFrame2(p.br, nil); !errors.Is(err, io.EOF) {
		p.t.Fatalf("connection still open: read %+v, err %v; want EOF", f, err)
	}
}

// TestCallsMultiplexOutOfOrder: 64 calls through one pool, every one of
// them blocked in its handler, do not hold up a 65th — a connection
// carries one exchange at a time, so each call takes its own — and
// their replies find their callers in whatever order the handlers
// finish. Afterwards the pool keeps maxIdleStreams connections parked,
// and the server serves exactly those.
func TestCallsMultiplexOutOfOrder(t *testing.T) {
	const n = 64
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var entered sync.WaitGroup
	entered.Add(n)
	srv := NewServer("test", nil, methodTable{
		"wait": {serve: typed(func(_ context.Context, p movedResult) (wireValue, error) {
			entered.Done()
			<-gates[p.Moved]
			return p, nil
		})},
		"beat": {class: classControl, serve: bare(func(context.Context) (wireValue, error) { return empty{}, nil })},
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	p := &streamPool{local: "tester"}
	addr := srv.Addr()

	finished := make(chan int, n) // one send per call
	for i := 0; i < n; i++ {
		go func(i int) {
			var got movedResult
			if err := p.call(ctx, addr, "test", "wait", movedResult{Moved: i}, &got); err != nil || got.Moved != i {
				t.Errorf("call %d: got %+v, %v", i, got, err)
			}
			finished <- i
		}(i)
	}
	entered.Wait()
	if err := p.call(ctx, addr, "test", "beat", nil, nil); err != nil {
		t.Fatalf("heartbeat behind %d blocked calls: %v", n, err)
	}
	// Let the handlers go last to first: each reply must reach its own
	// caller while every earlier call is still blocked.
	for i := n - 1; i >= 0; i-- {
		close(gates[i])
		if got := <-finished; got != i {
			t.Fatalf("released call %d, call %d returned", i, got)
		}
	}
	if got := p.idleTo(addr); got != maxIdleStreams {
		t.Fatalf("%d connections parked after %d calls, want %d", got, n+1, maxIdleStreams)
	}
	waitServed(t, srv, maxIdleStreams)
	p.close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWrongFrameKindClosesConnection: a frame that cannot begin an
// exchange ends the connection with ErrBadFrame — a chunk or a reply where an exchange must begin, one of no
// known type, a stream open to an endpoint that serves none after a
// call, a call in the middle of a stream, an unknown type after a
// finished stream — and the servers keep serving. A finished stream's
// connection carries a call next, and a call's caller closes a
// connection whose answer is of the wrong kind or for another call.
func TestWrongFrameKindClosesConnection(t *testing.T) {
	lc := testCluster(t, 2, nil)
	ping := encodeCall(callHeader{From: "tester", Method: "nn.list"}, nil)
	open := openWrite{Block: 77, Size: 2048, From: "tester"}.appendWire(nil)
	unknown := func(p *rawPeer) {
		hdr := (&frame2{Type: frameReply + 1, Stream: 1}).header()
		if _, err := p.nc.Write(hdr[:]); err != nil {
			p.t.Fatal(err)
		}
	}

	// serve reports why it hung up; drive it over a pipe to hear it.
	srv := NewServer("test", nil, methodTable{"ping": {serve: bare(func(context.Context) (wireValue, error) { return empty{}, nil })}})
	// streams answers every read stream with an empty block, cleanly.
	streams := NewServer("streams", nil, nil)
	streams.SetDataHandler(func(_ context.Context, _ net.Conn, _ *bufio.Reader, w *bufio.Writer, open frame2) bool {
		return writeFrame2(w, frameReadHdr, 0, open.Stream, readHdr{}.appendWire(nil)) == nil && w.Flush() == nil
	})
	readEmpty := func(p *rawPeer, id uint64) {
		p.send(frameOpenRead, 0, id, openRead{Block: 1, From: "tester"}.appendWire(nil))
		p.recv(frameReadHdr)
	}
	for name, tc := range map[string]struct {
		srv    *Server
		script func(p *rawPeer)
	}{
		"chunk opens nothing":                    {srv, func(p *rawPeer) { p.send(frameChunk, flagLast, 1, []byte("bytes")) }},
		"reply opens nothing":                    {srv, func(p *rawPeer) { p.send(frameReply, 0, 1, []byte(`{}`)) }},
		"stream to an endpoint that serves none": {srv, func(p *rawPeer) { p.send(frameOpenWrite, 0, 1, open) }},
		"unknown type":                           {srv, unknown},
		"stream open after a call, to an endpoint that serves none": {srv, func(p *rawPeer) {
			p.send(frameCall, 0, 1, encodeCall(callHeader{From: "tester", Method: "ping"}, nil))
			p.recv(frameReply)
			p.send(frameOpenWrite, 0, 2, open)
		}},
		"unknown type after a finished stream": {streams, func(p *rawPeer) {
			readEmpty(p, 1)
			unknown(p)
		}},
	} {
		near, far := net.Pipe()
		why := make(chan error, 1)
		go func() {
			why <- tc.srv.serve(far)
			_ = far.Close()
		}()
		tc.script(&rawPeer{t: t, nc: near, br: bufio.NewReader(near)})
		if err := <-why; !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: connection ended with %v, want ErrBadFrame", name, err)
		}
		_ = near.Close()
	}

	// The same on live ports, where hanging up is all a peer sees.
	nn := dialRaw(t, lc.NN.Addr())
	nn.send(frameCall, 0, 1, ping)
	nn.recv(frameReply)
	nn.send(frameOpenRead, 0, 2, openRead{Block: 77, From: "tester"}.appendWire(nil))
	nn.closed()

	dn, err := lc.DataNode(0)
	if err != nil {
		t.Fatal(err)
	}
	stream := dialRaw(t, dn.Addr())
	stream.send(frameOpenWrite, 0, 1, open)
	stream.send(frameChunk, 0, 1, make([]byte, 1024))
	stream.recv(frameSetupAck)
	stream.send(frameCall, 0, 1, ping)
	stream.closed()
	if _, _, ok := dn.Node().StoredSum(77); ok {
		t.Fatal("a stream cut short by a call frame committed its block")
	}

	// A write stream that finished cleanly leaves the connection open
	// for the next exchange: a call, another stream, and then a frame
	// that begins nothing ends it.
	block := payload(100)
	done := dialRaw(t, dn.Addr())
	done.send(frameOpenWrite, 0, 1, openWrite{Block: 78, Size: int64(len(block)), From: "tester"}.appendWire(nil))
	done.send(frameChunk, flagLast, 1, block)
	done.recv(frameSetupAck)
	done.recv(frameCommitAck)
	done.send(frameCall, 0, 2, encodeCall(callHeader{From: "tester", Method: "dn.stored"}, getParams{Block: 78}.appendWire(nil)))
	var stored storedResult
	if !decodeValue(done.recv(frameReply), &stored) || !stored.OK {
		t.Fatalf("dn.stored after a finished stream replied %+v", stored)
	}
	done.send(frameOpenRead, 0, 3, openRead{Block: 78, From: "tester"}.appendWire(nil))
	if size, err := decodeReadHdr(done.recv(frameReadHdr)); err != nil || size != int64(len(block)) {
		t.Fatalf("read after a call: header %d, %v", size, err)
	}
	if got := done.recv(frameChunk); string(got) != string(block) {
		t.Fatalf("read after a call: %d bytes back, want the %d written", len(got), len(block))
	}
	done.send(frameChunk, flagLast, 4, block)
	done.closed()
	dn.Node().Delete(78)

	// The caller's side: an answer of the wrong kind, or one whose id is
	// not the call's, fails the call with ErrBadFrame and closes the
	// connection instead of parking it.
	for name, answer := range map[string]func(id uint64) (uint8, uint64){
		"a reply whose id does not match the call closes the connection": func(id uint64) (uint8, uint64) { return frameReply, id + 1 },
		"a frame that answers no call closes the connection":             func(id uint64) (uint8, uint64) { return frameReadHdr, id },
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hungUp := make(chan error, 1)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				hungUp <- err
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			f, err := readFrame2(br, nil)
			if err != nil {
				hungUp <- err
				return
			}
			typ, id := answer(f.Stream)
			if err := writeFrame2(nc, typ, 0, id, readHdr{}.appendWire(nil)); err != nil {
				hungUp <- err
				return
			}
			_, err = readFrame2(br, nil)
			hungUp <- err
		}()
		p := &streamPool{local: "tester"}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := p.call(ctx, ln.Addr().String(), "test", "ping", nil, nil); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: call = %v, want ErrBadFrame", name, err)
		}
		if n := p.idleTo(ln.Addr().String()); n != 0 {
			t.Errorf("%s: %d connections parked", name, n)
		}
		if err := <-hungUp; !errors.Is(err, io.EOF) {
			t.Errorf("%s: the caller's side read %v, want EOF", name, err)
		}
		cancel()
		_ = ln.Close()
	}

	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := cl.CopyFromLocal(ctx, "after", payload(3000), true); err != nil {
		t.Fatalf("put after the misbehaving peers: %v", err)
	}
}

// TestAbsurdBudgetIsClamped: a deadline budget no honest peer sends —
// large enough to overflow a time.Duration into the past — on a call, a
// write stream and a read stream, against live ports. Each is served
// under a sane deadline, not expired at birth.
func TestAbsurdBudgetIsClamped(t *testing.T) {
	lc := testCluster(t, 1, nil)
	dn, err := lc.DataNode(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range []int64{1 << 62, math.MaxInt64} {
		call := dialRaw(t, lc.NN.Addr())
		call.send(frameCall, 0, 1, encodeCall(callHeader{DeadlineMS: ms, From: "tester", Method: "nn.list"}, nil))
		if got := call.recv(frameReply); !decodeValue(got, &listResult{}) {
			t.Fatalf("budget %d: nn.list replied %x", ms, got)
		}

		block := dfs.BlockID(500 + i)
		data := payload(1500)
		w := dialRaw(t, dn.Addr())
		w.send(frameOpenWrite, 0, 1, openWrite{Block: block, Size: int64(len(data)), DeadlineMS: ms, From: "tester"}.appendWire(nil))
		w.send(frameChunk, flagLast, 1, data)
		w.recv(frameSetupAck)
		acks, err := decodeAcks(w.recv(frameCommitAck))
		if err != nil || len(acks) != 1 || !acks[0].OK {
			t.Fatalf("budget %d: commit acks %+v, %v", ms, acks, err)
		}

		r := dialRaw(t, dn.Addr())
		r.send(frameOpenRead, 0, 1, openRead{Block: block, DeadlineMS: ms, From: "tester"}.appendWire(nil))
		if size, err := decodeReadHdr(r.recv(frameReadHdr)); err != nil || size != int64(len(data)) {
			t.Fatalf("budget %d: read header %d, %v", ms, size, err)
		}
		if got := r.recv(frameChunk); string(got) != string(data) {
			t.Fatalf("budget %d: read back %d bytes, want the %d written", ms, len(got), len(data))
		}
		for _, p := range []*rawPeer{call, w, r} {
			_ = p.nc.Close()
		}
	}
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.List(ctx); err != nil {
		t.Fatalf("list after the absurd budgets: %v", err)
	}
}

// TestMethodTablesMatchCallSites: the methods the two servers declare
// and the method strings this package's own callers send — the client,
// the DataNode proxies, the heartbeat — are the same set, so neither a
// handler nobody calls nor a call nobody answers can be added.
func TestMethodTablesMatchCallSites(t *testing.T) {
	declared := map[string]bool{}
	for name := range (&NameNodeServer{}).methods() {
		declared[name] = true
	}
	for name := range (&DataNodeServer{}).methods() {
		declared[name] = true
	}

	sent := map[string]bool{}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "call" {
				return true
			}
			// An owner's call takes the method first, a pool's call
			// (ctx, addr, peer, method, params, result) after the
			// address and the peer.
			arg := call.Args[1]
			if len(call.Args) == 6 {
				arg = call.Args[3]
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				method, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				sent[method] = true
			}
			return true
		})
	}
	for name := range declared {
		if !sent[name] {
			t.Errorf("%s is declared by a server and sent by nobody", name)
		}
	}
	for name := range sent {
		if !declared[name] {
			t.Errorf("%s is sent and declared by no server", name)
		}
	}
}
