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
// begins completes and gets its response; a request arriving after
// rejects with ErrShuttingDown; Shutdown returns only once the
// handler has drained.
func TestShutdownDrainsInflightAndRejectsNew(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := NewServer("test", nil, methodTable{
		"slow": {serve: bare(func(context.Context) (any, error) {
			close(entered)
			<-release
			return struct{}{}, nil
		})},
		"fast": {serve: bare(func(context.Context) (any, error) { return struct{}{}, nil })},
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := dialConn(ctx, srv.Addr(), "tester", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var slowErr error
	go func() {
		defer wg.Done()
		slowErr = conn.Call(ctx, "slow", nil, nil)
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	// Wait until the server has flipped to draining, then verify new
	// requests on the existing connection are rejected.
	for {
		srv.mu.Lock()
		down := srv.down
		srv.mu.Unlock()
		if down {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := conn.Call(ctx, "fast", nil, nil); !errors.Is(err, ErrShuttingDown) {
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
	srv := NewServer("test", nil, methodTable{"wedge": {serve: bare(func(context.Context) (any, error) {
		<-block
		return struct{}{}, nil
	})}})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := dialConn(ctx, srv.Addr(), "tester", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { _ = conn.Call(ctx, "wedge", nil, nil) }()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler

	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer scancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}
