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

// Handler serves one RPC. from is the caller's endpoint name from the
// request envelope; ctx carries the caller's propagated deadline.
type Handler func(ctx context.Context, from, method string, params []byte) (any, error)

// DataHandler serves one v2 binary data stream on a dedicated
// connection (see wire2.go). It owns the connection until it returns;
// ctx is the server's lifecycle context. r is the connection's
// buffered reader with the preamble already consumed.
type DataHandler func(ctx context.Context, nc net.Conn, r *bufio.Reader)

// Server accepts frame connections and dispatches each request to its
// Handler on a fresh goroutine, so one slow block transfer never
// blocks a heartbeat on the same connection. Shutdown drains in-flight
// requests before returning: new requests are rejected with
// ErrShuttingDown, running handlers complete and flush their
// responses.
type Server struct {
	name    string // endpoint name, for the fault hook
	faults  TransportFaults
	handler Handler
	data    DataHandler // v2 stream handler; nil endpoints drop v2 dials

	// admit is the admission controller; a nil load admits everything.
	// Atomic so SetAdmission works on a serving endpoint (tests and
	// benches install limits on already-listening DataNodes).
	admit atomic.Pointer[admission]

	ln net.Listener

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
func NewServer(name string, faults TransportFaults, handler Handler) *Server {
	s := &Server{
		name:    name,
		faults:  faults,
		handler: handler,
		conns:   make(map[net.Conn]bool),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// SetDataHandler installs the v2 binary stream handler. Call before
// Listen; endpoints without one close v2 connections on arrival.
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
	var wmu sync.Mutex // serializes response frames on this conn
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		_ = nc.Close()
	}()
	// Both protocols share the listener: v2 data streams announce
	// themselves with a 4-byte preamble that can never be a valid JSON
	// frame header (it decodes as a length beyond MaxControlFrame), so
	// peeking the first bytes routes the connection unambiguously.
	br := bufio.NewReaderSize(nc, 64<<10)
	first, err := br.Peek(len(dataPreamble))
	if err != nil {
		return
	}
	if [4]byte(first) == dataPreamble {
		_, _ = br.Discard(len(dataPreamble))
		// A data stream counts as one in-flight unit: Shutdown drains
		// it like a pending RPC instead of cutting a half-written block.
		s.mu.Lock()
		if s.down || s.data == nil {
			s.mu.Unlock()
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		defer s.inflight.Done()
		s.data(s.baseCtx, nc, br)
		return
	}
	for {
		var req request
		if err := readFrame(br, &req); err != nil {
			return
		}
		// The serving side consults the fault hook too: a partition
		// severs requests already in flight from the far side, not
		// just new dials.
		if s.faults != nil {
			if err := s.faults.FailMessage(req.From, s.name); err != nil {
				return
			}
		}
		// Admission and wg.Add happen under the same lock Shutdown
		// takes before waiting, so a request is either rejected or
		// fully drained — never lost in between.
		s.mu.Lock()
		if s.down {
			s.mu.Unlock()
			s.reply(nc, &wmu, req.ID, nil, fmt.Errorf("svc: %s rejecting %s: %w", s.name, req.Method, ErrShuttingDown))
			continue
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		go func(req request) {
			defer s.inflight.Done()
			ctx := s.baseCtx
			if req.DeadlineMS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
				defer cancel()
			}
			// Admission happens inside the request goroutine so a queued
			// wait never blocks the connection's read loop, and the wait
			// is bounded by the request's own deadline budget.
			release, aerr := s.admit.Load().acquire(ctx, classOf(req.Method))
			if aerr != nil {
				s.reply(nc, &wmu, req.ID, nil, fmt.Errorf("svc: %s shedding %s: %w", s.name, req.Method, aerr))
				return
			}
			defer release()
			result, err := s.handler(ctx, req.From, req.Method, req.Params)
			s.reply(nc, &wmu, req.ID, result, err)
		}(req)
	}
}

// reply writes one response frame (result xor err).
func (s *Server) reply(nc net.Conn, wmu *sync.Mutex, id uint64, result any, err error) {
	resp := response{ID: id}
	if err != nil {
		encodeError(&resp, err)
	} else {
		raw, merr := marshalResult(result)
		if merr != nil {
			encodeError(&resp, merr)
		} else {
			resp.Result = raw
		}
	}
	wmu.Lock()
	defer wmu.Unlock()
	if werr := writeFrame(nc, resp); werr != nil {
		_ = nc.Close() // framing is gone; reader sees EOF and cleans up
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
