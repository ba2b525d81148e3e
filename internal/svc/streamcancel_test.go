package svc

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// TestStreamGetAbandonedMidChunkReleasesBuffers pins the reader-side
// pool contract: when a read stream's deadline fires between chunks —
// a pooled chunk already consumed, more announced but never sent —
// every pooled buffer the client acquired must be back in the pool.
// The server is a stall: it answers the open with a header promising
// three chunks, delivers one, and goes silent.
func TestStreamGetAbandonedMidChunkReleasesBuffers(t *testing.T) {
	start := frameBufs.balance()
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
		f.release()
		bw := bufio.NewWriterSize(nc, 32<<10)
		if writeFrame2(bw, frameReadHdr, 0, sid, encodeReadHdr(3*DefaultChunkSize)) != nil {
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

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := streamGet(ctx, "reader", nil, ln.Addr().String(), "stall-dn", dfs.BlockID(7)); err == nil {
		t.Fatal("streamGet succeeded against a stalled stream, want deadline error")
	}
	requirePoolBalance(t, start)
}

// TestServeWriteTornMidChunkReleasesBuffers pins the server-side pool
// contract: a writer that opens a pipeline stream, sends part of the
// block, and vanishes must not leak a pooled buffer on the datanode,
// and must leave nothing committed.
func TestServeWriteTornMidChunkReleasesBuffers(t *testing.T) {
	lc := testCluster(t, 2, nil)
	start := frameBufs.balance()

	dn, err := lc.DataNode(0)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", dn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriterSize(nc, 32<<10)
	br := bufio.NewReader(nc)
	ow := openWrite{Block: 99, Size: 2048, DeadlineMS: 5000, From: "torn-writer"}
	if err := writeFrame2(bw, frameOpenWrite, 0, 1, encodeOpenWrite(ow)); err != nil {
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
		sf.release()
		t.Fatalf("setup reply type = %d, want setup ack", sf.Type)
	}
	sf.release()
	// Half the block, not flagged last — then the writer dies.
	if err := writeFrame2(bw, frameChunk, 0, 1, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := nc.Close(); err != nil {
		t.Fatal(err)
	}

	// Every frame the datanode pooled must drain back to the pool once
	// the stream tears.
	requirePoolBalance(t, start)
}
