package svc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestShutdownDrainsInflightAndRejectsNew pins the graceful-shutdown
// contract at the server layer: a request in flight when Shutdown
// begins completes and gets its response; a request arriving after, on
// a connection that sat idle since before the drain began, rejects with
// ErrShuttingDown; Shutdown returns only once the handler has drained.
func TestShutdownDrainsInflightAndRejectsNew(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := NewServer("test", nil, methodTable{
		"slow": {serve: bare(func(context.Context) (wireValue, error) {
			close(entered)
			<-release
			return empty{}, nil
		})},
		"fast": {serve: bare(func(context.Context) (wireValue, error) { return empty{}, nil })},
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	addr := srv.Addr()
	// idle parks a connection now, for a call during the drain; the slow
	// call goes through a pool of its own.
	idle, busy := &streamPool{local: "tester"}, &streamPool{local: "tester"}
	defer idle.close()
	defer busy.close()
	if err := idle.call(ctx, addr, "test", "fast", nil, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var slowErr error
	go func() {
		defer wg.Done()
		slowErr = busy.call(ctx, addr, "test", "slow", nil, nil)
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	// Wait until the server has flipped to draining, then verify new
	// requests on the connection parked before it are rejected.
	for {
		srv.mu.Lock()
		down := srv.down
		srv.mu.Unlock()
		if down {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := idle.call(ctx, addr, "test", "fast", nil, nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("call during drain = %v, want ErrShuttingDown", err)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight handler finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	wg.Wait()
	if slowErr != nil {
		t.Fatalf("in-flight call during graceful shutdown = %v, want success", slowErr)
	}
}

// TestShutdownDeadlineExpires: a handler that never finishes must not
// wedge Shutdown forever — the context bounds the drain.
func TestShutdownDeadlineExpires(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := NewServer("test", nil, methodTable{"wedge": {serve: bare(func(context.Context) (wireValue, error) {
		<-block
		return empty{}, nil
	})}})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := &streamPool{local: "tester"}
	defer p.close()
	go func() { _ = p.call(ctx, srv.Addr(), "test", "wedge", nil, nil) }()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler

	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer scancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}
