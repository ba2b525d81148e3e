package svc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DataHandler serves one block stream (see wire.go). It owns the
// connection until it returns; ctx is the server's lifecycle context, r
// and w the connection's buffered reader and writer, and open the
// frameOpenWrite or frameOpenRead that began the stream, which the
// handler releases. It reports whether the stream ended cleanly — its
// last frame sent and flushed, its deadline watcher stopped before it
// fired — so that the connection may carry the next exchange.
type DataHandler func(ctx context.Context, nc net.Conn, r *bufio.Reader, w *bufio.Writer, open frame2) (clean bool)

// Server accepts connections and serves each on one goroutine, which
// reads a frame at every exchange boundary: a call is admitted, handled
// inline and answered, a stream open goes to the data handler, and the
// connection then waits for its next exchange. A connection carries one
// exchange at a time, so a slow handler holds up only its own caller.
// Shutdown drains in-flight calls and streams before returning: new
// calls are rejected with ErrShuttingDown, running handlers complete
// and flush their replies; a connection idle between exchanges is not
// in flight and is simply closed.
type Server struct {
	name    string // endpoint name, for the fault hook
	faults  TransportFaults
	methods methodTable
	data    DataHandler // stream handler; endpoints without one drop streams

	// admit is the admission controller; a nil load admits everything.
	// Atomic so SetAdmission works on a serving endpoint (tests and
	// benches install limits on already-listening DataNodes).
	admit atomic.Pointer[admission]

	ln net.Listener

	// accepted counts the connections accepted, so tests can see
	// connections being reused.
	accepted atomic.Int64

	// baseCtx parents every handler invocation; baseCancel fires on
	// Crash (immediately) and Shutdown (after the drain window), so a
	// handler stuck in a downstream call observes the server dying
	// instead of holding the connection forever.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	conns    map[net.Conn]bool
	down     bool
	inflight sync.WaitGroup
}

// NewServer creates a server for the named endpoint. faults may be
// nil.
func NewServer(name string, faults TransportFaults, methods methodTable) *Server {
	s := &Server{
		name:    name,
		faults:  faults,
		methods: methods,
		conns:   make(map[net.Conn]bool),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// SetDataHandler installs the block stream handler. Call before
// Listen; endpoints without one close a connection on its first stream
// open.
func (s *Server) SetDataHandler(h DataHandler) { s.data = h }

// SetAdmission installs admission control (see AdmissionConfig); a
// zero config disables it. Safe on a serving endpoint — requests
// already admitted finish under the controller that admitted them.
func (s *Server) SetAdmission(cfg AdmissionConfig) { s.admit.Store(newAdmission(cfg)) }

// Admission exposes the controller for metrics export (nil when
// admission control is disabled).
func (s *Server) Admission() *admission { return s.admit.Load() }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("svc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("svc: listen %s: %w", addr, ErrShuttingDown)
	}
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.down {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[nc] = true
		s.mu.Unlock()
		s.accepted.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		_ = nc.Close()
	}()
	_ = s.serve(nc) // why a connection ended is the peer's to find out
}

// serve runs one connection to its end and reports why it ended. Each
// exchange begins with the frame read at its boundary: a call is served
// and answered, a stream open goes to the data handler if the endpoint
// has one, and anything else is not a way to begin. After an exchange
// that ended cleanly the connection waits, with no deadline, for its
// next; any other ending closes it.
func (s *Server) serve(nc net.Conn) error {
	br := bufio.NewReaderSize(nc, streamReadBuf)
	bw := bufio.NewWriterSize(nc, 32<<10)
	for {
		f, err := readFrame2(br, nil)
		if err != nil {
			return err
		}
		next := true
		switch {
		case f.Type == frameCall:
			err = s.serveCall(bw, f)
		case (f.Type == frameOpenWrite || f.Type == frameOpenRead) && s.data != nil:
			next, err = s.serveStream(nc, br, bw, f)
		default:
			err = fmt.Errorf("%w: frame type %d cannot begin an exchange with %s", ErrBadFrame, f.Type, s.name)
		}
		if err != nil || !next {
			return err
		}
	}
}

// enter counts one exchange in flight unless the server is draining.
// It takes the lock Shutdown takes before waiting, so an exchange is
// either refused or fully drained — never lost in between.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	s.inflight.Add(1)
	return true
}

// serveStream runs the stream f opens and reports whether it ended
// cleanly, its deadline cleared for the connection's next exchange.
// Each stream counts as one in-flight unit: Shutdown drains it like a
// call instead of cutting a half-written block.
func (s *Server) serveStream(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, f frame2) (clean bool, err error) {
	if !s.enter() {
		return false, fmt.Errorf("svc: %s refusing a stream: %w", s.name, ErrShuttingDown)
	}
	clean = s.data(s.baseCtx, nc, br, bw, f)
	s.inflight.Done()
	if !clean {
		return false, nil
	}
	return true, nc.SetDeadline(time.Time{})
}

// serveCall runs the call f carries to its reply. An error — a call
// frame that is no call, a partition, a reply that cannot be sent — ends
// the connection.
func (s *Server) serveCall(bw *bufio.Writer, f frame2) error {
	h, params, err := decodeCall(f.Payload)
	if err != nil {
		return err
	}
	// The serving side consults the fault hook too: a partition severs
	// calls already under way from the far side, not just new dials.
	if s.faults != nil {
		if err := s.faults.FailMessage(h.From, s.name); err != nil {
			return err
		}
	}
	if !s.enter() {
		return s.reply(bw, f.Stream, nil, fmt.Errorf("svc: %s rejecting %s: %w", s.name, h.Method, ErrShuttingDown))
	}
	defer s.inflight.Done() // after the reply is flushed
	result, err := s.handle(h, params)
	return s.reply(bw, f.Stream, result, err)
}

// handle runs one call's handler under the caller's deadline budget,
// once admission lets it in; a queued wait is bounded by that budget.
func (s *Server) handle(h callHeader, params []byte) (wireValue, error) {
	ctx, cancel := budgetCtx(s.baseCtx, h.DeadlineMS)
	defer cancel()
	release, err := s.admit.Load().acquire(ctx, s.methods.classOf(h.Method))
	if err != nil {
		return nil, fmt.Errorf("svc: %s shedding %s: %w", s.name, h.Method, err)
	}
	defer release()
	m, ok := s.methods[h.Method]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, h.Method)
	}
	return m.serve(ctx, params)
}

// reply answers call id with one frame: the result's layout as a
// reply, or err — the handler's, or that of a result too large for a
// frame — as an error frame.
func (s *Server) reply(bw *bufio.Writer, id uint64, result wireValue, err error) error {
	typ, payload := frameReply, []byte(nil)
	if err == nil {
		if payload = result.appendWire(make([]byte, 0, 256)); len(payload) > MaxControlFrame {
			err = fmt.Errorf("%w: %d-byte result", ErrFrameTooLarge, len(payload))
		}
	}
	if err != nil {
		typ, payload = frameError, failedAck(0, err).failure.appendWire(payloadBuf())
	}
	if err := writeFrame2(bw, typ, 0, id, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// Crash force-closes the server without drain: the listener and every
// connection drop immediately and in-flight handlers lose their reply
// path — the transport shape of SIGKILL, for crash-recovery tests.
func (s *Server) Crash() {
	s.baseCancel() // in-flight handlers die with the process image
	s.mu.Lock()
	s.down = true
	ln := s.ln
	for nc := range s.conns {
		_ = nc.Close() // serving goroutines see the error and unregister
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
}

// Shutdown stops accepting, rejects new requests, waits for in-flight
// handlers to drain (bounded by ctx), then closes all connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return nil
	}
	s.down = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("svc: shutdown of %s: %w", s.name, ctx.Err())
	}
	// Drain window over: cancel whatever is still running.
	s.baseCancel()

	s.mu.Lock()
	for nc := range s.conns {
		_ = nc.Close()
	}
	s.mu.Unlock()
	return err
}
