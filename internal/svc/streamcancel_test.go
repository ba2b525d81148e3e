package svc

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// TestStreamGetAbandonedMidChunkFailsByDeadline: when a read stream's
// deadline fires between chunks — one chunk already consumed, more
// announced but never sent — the get returns an error once the deadline
// passes instead of waiting on the silent peer. The server is a stall:
// it answers the open with a header promising three chunks, delivers
// one, and goes silent.
func TestStreamGetAbandonedMidChunkFailsByDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		f, err := readFrame2(br, nil)
		if err != nil {
			return
		}
		sid := f.Stream
		bw := bufio.NewWriterSize(nc, 32<<10)
		if writeFrame2(bw, frameReadHdr, 0, sid, readHdr{Size: 3 * DefaultChunkSize}.appendWire(nil)) != nil {
			return
		}
		if writeFrame2(bw, frameChunk, 0, sid, make([]byte, DefaultChunkSize)) != nil {
			return
		}
		if bw.Flush() != nil {
			return
		}
		<-stall // hold the conn open, never sending chunk 2
	}()

	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	began := time.Now()
	if _, err := streamGet(ctx, "reader", nil, ln.Addr().String(), "stall-dn", dfs.BlockID(7)); err == nil {
		t.Fatal("streamGet succeeded against a stalled stream, want deadline error")
	}
	// The slack covers a loaded scheduler, not a wait on the peer: the
	// stall never sends again.
	if took := time.Since(began); took > deadline+2*time.Second {
		t.Fatalf("the abandoned get returned %v after it began, past its %v deadline", took, deadline)
	}
}

// TestServeWriteTornMidChunkCommitsNothing: a writer that opens a
// pipeline stream, sends part of the block, and vanishes leaves nothing
// committed on the datanode and no pin held once the stream has torn.
func TestServeWriteTornMidChunkCommitsNothing(t *testing.T) {
	lc := testCluster(t, 2, nil)
	dn, err := lc.DataNode(0)
	if err != nil {
		t.Fatal(err)
	}
	served, pins := dn.srv.served(), dn.Node().Pins()
	nc, err := net.Dial("tcp", dn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriterSize(nc, 32<<10)
	br := bufio.NewReader(nc)
	ow := openWrite{Block: 99, Size: 2048, DeadlineMS: 5000, From: "torn-writer"}
	if err := writeFrame2(bw, frameOpenWrite, 0, 1, ow.appendWire(nil)); err != nil {
		t.Fatal(err)
	}
	// Half the block, not flagged last, rides with the open frame — the
	// writer dies once the setup ack is in.
	if err := writeFrame2(bw, frameChunk, 0, 1, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	sf, err := readFrame2(br, nil)
	if err != nil {
		t.Fatalf("setup ack: %v", err)
	}
	if sf.Type != frameSetupAck {
		t.Fatalf("setup reply type = %d, want setup ack", sf.Type)
	}
	if err := nc.Close(); err != nil {
		t.Fatal(err)
	}

	// Once the datanode has dropped the torn connection, the half-written
	// block is nowhere in its store.
	waitServed(t, dn.srv, served)
	if dn.Node().Has(99) {
		t.Fatal("a torn write committed block 99")
	}
	if n := dn.Node().Pins(); n != pins {
		t.Fatalf("pins = %d after the torn write, want %d", n, pins)
	}
}
