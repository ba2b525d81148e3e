package svc

import (
	"bufio"
	"context"
	"encoding/json"
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
// fired — so that the connection may carry the next one.
type DataHandler func(ctx context.Context, nc net.Conn, r *bufio.Reader, w *bufio.Writer, open frame2) (clean bool)

// Server accepts connections and lets each one's first frame say what
// it is: a call connection, whose every call runs on a fresh goroutine
// so one slow handler never blocks a heartbeat on the same connection,
// or a stream connection, which carries block streams one after
// another. Shutdown drains in-flight calls and streams before
// returning: new calls are rejected with ErrShuttingDown, running
// handlers complete and flush their replies; a stream connection idle
// between streams is not in flight and is simply closed.
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

	// streamConns counts the connections whose first frame opened a
	// stream, so tests can see connections being reused.
	streamConns atomic.Int64

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
// Listen; endpoints without one close stream connections on arrival.
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

// serve runs one connection to its end and reports why it ended. The
// first frame routes it: a call opens the call loop, a stream open the
// stream loop if the endpoint has a stream handler, anything else is
// not a way to start.
func (s *Server) serve(nc net.Conn) error {
	// Sized for a stream connection (streamReadBuf), since the first
	// frame is read before the kind is known; a call connection's frames
	// are metadata and fit it as well.
	br := bufio.NewReaderSize(nc, streamReadBuf)
	f, err := readFrame2(br, nil)
	if err != nil {
		return err
	}
	switch {
	case f.Type == frameCall:
		return s.serveCalls(nc, br, f)
	case isStreamOpen(f) && s.data != nil:
		s.streamConns.Add(1)
		return s.serveStreams(nc, br, f)
	default:
		f.release()
		return fmt.Errorf("%w: frame type %d cannot open a connection to %s", ErrBadFrame, f.Type, s.name)
	}
}

func isStreamOpen(f frame2) bool { return f.Type == frameOpenWrite || f.Type == frameOpenRead }

// serveStreams is the stream loop: f opens the connection's first
// stream, and after each stream that ends cleanly the connection waits,
// with no deadline, for the next frame, which must open another. Any
// other ending closes the connection.
func (s *Server) serveStreams(nc net.Conn, br *bufio.Reader, f frame2) error {
	bw := bufio.NewWriterSize(nc, 32<<10)
	for {
		if !isStreamOpen(f) {
			f.release()
			return fmt.Errorf("%w: frame type %d after a finished stream", ErrBadFrame, f.Type)
		}
		// Each stream counts as one in-flight unit: Shutdown drains it
		// like a pending call instead of cutting a half-written block.
		s.mu.Lock()
		if s.down {
			s.mu.Unlock()
			f.release()
			return fmt.Errorf("svc: %s refusing a stream: %w", s.name, ErrShuttingDown)
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		clean := s.data(s.baseCtx, nc, br, bw, f)
		s.inflight.Done()
		if !clean {
			return nil
		}
		if err := nc.SetDeadline(time.Time{}); err != nil {
			return err
		}
		var err error
		if f, err = readFrame2(br, nil); err != nil {
			return err
		}
	}
}

// serveCalls is the call loop: f is the connection's first call, and
// every further frame must be one too.
func (s *Server) serveCalls(nc net.Conn, br *bufio.Reader, f frame2) error {
	w := newFrameWriter(nc)
	for {
		if err := s.dispatch(w, f); err != nil {
			f.release()
			return err
		}
		var err error
		if f, err = readFrame2(br, nil); err != nil {
			return err
		}
	}
}

// dispatch starts one call's handler, which takes f over; an error
// leaves f with the caller and ends the connection.
func (s *Server) dispatch(w *frameWriter, f frame2) error {
	if f.Type != frameCall {
		return fmt.Errorf("%w: frame type %d on a call connection", ErrBadFrame, f.Type)
	}
	h, params, err := decodeCall(f.Payload)
	if err != nil {
		return err
	}
	// The serving side consults the fault hook too: a partition severs
	// calls already in flight from the far side, not just new dials.
	if s.faults != nil {
		if err := s.faults.FailMessage(h.From, s.name); err != nil {
			return err
		}
	}
	// Admission and wg.Add happen under the same lock Shutdown takes
	// before waiting, so a call is either rejected or fully drained —
	// never lost in between.
	s.mu.Lock()
	down := s.down
	if !down {
		s.inflight.Add(1)
	}
	s.mu.Unlock()
	if down {
		s.reply(w, f.Stream, nil, fmt.Errorf("svc: %s rejecting %s: %w", s.name, h.Method, ErrShuttingDown))
		f.release()
		return nil
	}
	go s.handle(w, f, h, params)
	return nil
}

// handle runs one call to its reply. params alias f's pooled payload,
// which is released once the handler — whose decoders copy — is done.
func (s *Server) handle(w *frameWriter, f frame2, h callHeader, params []byte) {
	defer s.inflight.Done()
	defer f.release()
	ctx, cancel := budgetCtx(s.baseCtx, h.DeadlineMS)
	defer cancel()
	// Admission happens inside the call's goroutine so a queued wait
	// never blocks the connection's read loop, and the wait is bounded
	// by the call's own deadline budget.
	release, aerr := s.admit.Load().acquire(ctx, s.methods.classOf(h.Method))
	if aerr != nil {
		s.reply(w, f.Stream, nil, fmt.Errorf("svc: %s shedding %s: %w", s.name, h.Method, aerr))
		return
	}
	defer release()
	m, ok := s.methods[h.Method]
	if !ok {
		s.reply(w, f.Stream, nil, fmt.Errorf("%w: %q", ErrUnknownMethod, h.Method))
		return
	}
	result, err := m.serve(ctx, params)
	s.reply(w, f.Stream, result, err)
}

// reply answers call id with one frame: the result as a reply, or err
// — the handler's, or that of a result that will not encode or fit —
// as an error frame.
func (s *Server) reply(w *frameWriter, id uint64, result any, err error) {
	typ, payload := frameReply, []byte(nil)
	if err == nil {
		if payload, err = json.Marshal(result); err != nil {
			err = fmt.Errorf("svc: encode result: %w", err)
		} else if len(payload) > MaxControlFrame {
			err = fmt.Errorf("%w: %d-byte result", ErrFrameTooLarge, len(payload))
		}
	}
	if err != nil {
		typ, payload = frameError, encodeErrorFrame(err)
	}
	if w.send(time.Time{}, typ, id, payload) != nil {
		_ = w.nc.Close() // framing is gone; the read loop sees the error and cleans up
	}
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
		_ = nc.Close() // reader goroutines see the error and unregister
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
