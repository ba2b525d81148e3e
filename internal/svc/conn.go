package svc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// faultGate consults the sender's side of the fault hook before a
// message leaves: a partition fails it, injected latency is slept
// (bounded by ctx). A nil hook passes everything.
func faultGate(ctx context.Context, faults TransportFaults, local, peer string) error {
	if faults == nil {
		return nil
	}
	if err := faults.FailMessage(local, peer); err != nil {
		return err
	}
	if d := faults.MessageDelay(local, peer); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// dial opens a TCP connection to addr, for calls and streams alike.
// The fault hook is consulted first, so a partitioned endpoint cannot
// even dial, and injected latency is paid once per connection. A stream
// consults it itself, once per stream, since most streams ride a parked
// connection; it dials with a nil hook (streamPool.acquireConn).
func dial(ctx context.Context, addr, local, peer string, faults TransportFaults) (net.Conn, error) {
	if err := faultGate(ctx, faults, local, peer); err != nil {
		return nil, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	return nc, nil
}

// frameWriter serializes whole frames onto one call connection, from
// either end: calls one way, replies the other.
type frameWriter struct {
	mu sync.Mutex
	nc net.Conn
	bw *bufio.Writer
}

func newFrameWriter(nc net.Conn) *frameWriter {
	return &frameWriter{nc: nc, bw: bufio.NewWriterSize(nc, 32<<10)}
}

// send writes one frame and flushes it, under deadline (zero for none).
func (w *frameWriter) send(deadline time.Time, typ uint8, id uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.nc.SetWriteDeadline(deadline)
	if err := writeFrame2(w.bw, typ, 0, id, payload); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Conn is one multiplexed call connection: concurrent Calls are
// correlated by call id (the frame's stream id), so a slow call does
// not serialize a heartbeat behind it. A Conn that observes a
// transport error dies and fails all pending calls with ErrConnClosed;
// the owning peer redials on the next call.
type Conn struct {
	local  string // our endpoint name, sent in every call header
	peer   string // the peer's endpoint name, for the fault hook
	faults TransportFaults
	nc     net.Conn
	w      *frameWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan frame2 // each buffered for its one reply
	dead    bool
	cause   error
}

// dialConn opens a call connection and starts its reader.
func dialConn(ctx context.Context, addr, local, peer string, faults TransportFaults) (*Conn, error) {
	nc, err := dial(ctx, addr, local, peer, faults)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		local:   local,
		peer:    peer,
		faults:  faults,
		nc:      nc,
		w:       newFrameWriter(nc),
		pending: make(map[uint64]chan frame2),
	}
	go c.readLoop()
	return c, nil
}

// readLoop routes reply and error frames to their pending calls until
// the connection dies. A reply nobody waits for — its call was
// cancelled, or never made — is dropped; any other kind of frame has
// no business on a call connection and ends it.
func (c *Conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 32<<10)
	for {
		f, err := readFrame2(br, nil)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		if f.Type != frameReply && f.Type != frameError {
			f.release()
			c.fail(fmt.Errorf("%w: %v: frame type %d on a call connection", ErrConnClosed, ErrBadFrame, f.Type))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.Stream]
		delete(c.pending, f.Stream)
		c.mu.Unlock()
		if ok {
			ch <- f
		} else {
			f.release()
		}
	}
}

// fail marks the connection dead and wakes every pending call.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.cause = cause
	stranded := c.pending
	c.pending = make(map[uint64]chan frame2)
	c.mu.Unlock()
	_ = c.nc.Close()
	for _, ch := range stranded {
		close(ch)
	}
}

// Close tears the connection down; pending calls fail with
// ErrConnClosed.
func (c *Conn) Close() {
	c.fail(ErrConnClosed)
}

// Dead reports whether the connection has failed.
func (c *Conn) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Call performs one RPC: params are marshalled, the deadline budget
// from ctx rides in the call header, and the reply is unmarshalled
// into result (ignored when result is nil). Errors from the peer are
// rehydrated as RemoteError.
func (c *Conn) Call(ctx context.Context, method string, params, result any) error {
	if err := faultGate(ctx, c.faults, c.local, c.peer); err != nil {
		if ctx.Err() == nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
		}
		return fmt.Errorf("svc: call %s: %w", method, err)
	}

	var raw []byte
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("svc: call %s: encode params: %w", method, err)
		}
		raw = b
	}

	ch := make(chan frame2, 1)
	c.mu.Lock()
	if c.dead {
		cause := c.cause
		c.mu.Unlock()
		return fmt.Errorf("svc: call %s: %w", method, cause)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	payload := encodeCall(callHeader{DeadlineMS: budgetOf(ctx), From: c.local, Method: method}, raw)
	dl, _ := ctx.Deadline() // the zero time when there is none
	if err := c.w.send(dl, frameCall, id, payload); err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
		return fmt.Errorf("svc: call %s: %w", method, err)
	}

	select {
	case f, ok := <-ch:
		if !ok {
			return fmt.Errorf("svc: call %s: %w", method, ErrConnClosed)
		}
		defer f.release()
		if f.Type == frameError {
			return fmt.Errorf("svc: call %s: %w", method, decodeErrorFrame(f.Payload))
		}
		if result != nil {
			if err := json.Unmarshal(f.Payload, result); err != nil {
				return fmt.Errorf("%w: call %s result: %v", ErrBadFrame, method, err)
			}
		}
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		_, waiting := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !waiting {
			// The reader already took the call off the table: its frame
			// (or the close of a dying connection) is on its way here.
			if f, ok := <-ch; ok {
				f.release()
			}
		}
		return fmt.Errorf("svc: call %s: %w", method, ctx.Err())
	}
}

// peerConn is a redialing wrapper: it lazily dials, reuses a live
// Conn across calls, and drops a dead one so the next call redials.
// Safe for concurrent use.
type peerConn struct {
	addr   string
	local  string
	peer   string
	faults TransportFaults

	mu   sync.Mutex
	conn *Conn
}

func newPeerConn(addr, local, peer string, faults TransportFaults) *peerConn {
	return &peerConn{addr: addr, local: local, peer: peer, faults: faults}
}

// call performs one RPC on the cached connection, dialing first when
// there is none or it has died.
func (p *peerConn) call(ctx context.Context, method string, params, result any) error {
	p.mu.Lock()
	c := p.conn
	if c == nil || c.Dead() {
		var err error
		if c, err = dialConn(ctx, p.addr, p.local, p.peer, p.faults); err != nil {
			p.mu.Unlock()
			return err
		}
		p.conn = c
	}
	p.mu.Unlock()
	return c.Call(ctx, method, params, result)
}

// close tears down the cached connection.
func (p *peerConn) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}
