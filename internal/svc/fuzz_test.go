package svc

import (
	"bytes"
	"testing"

	"github.com/adaptsim/adapt/internal/dfs"
)

// Fuzz targets for the wire codec (wire.go), the whole of it: calls,
// replies and errors ride the same frames block streams do. The
// decoders face bytes straight off a socket, so the contract under
// arbitrary input
// is: never panic, never allocate unboundedly, and never leak a pooled
// buffer — readFrame2 owns its payload until it hands it to the
// caller, and every rejection path must have returned it already.
//
// Seed corpus lives in testdata/fuzz/<Target>/ alongside the f.Add
// seeds below; `make fuzz-smoke` gives each target a short randomized
// budget in CI.

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader and every
// payload decoder.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	// A well-formed chunk frame, so mutations explore near-valid space.
	var valid bytes.Buffer
	if err := writeFrame2(&valid, frameChunk, flagLast, 7, []byte("block bytes")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(encodeOpenWrite(openWrite{Block: 3, Size: 1024, From: "nn", Chain: []chainEntry{{Node: 1, Addr: "127.0.0.1:9"}}}))
	f.Add(encodeAcks([]ackEntry{{Node: 2, OK: true}, {Node: 3, Code: "node_down", Msg: "down", Transient: true}}))
	// A call, its reply and its error, framed and as bare payloads.
	call := encodeCall(callHeader{DeadlineMS: 1500, From: "shell", Method: "nn.locate"}, []byte(`{"name":"f"}`))
	failure := encodeErrorFrame(dfs.ErrFileNotFound)
	f.Add(call)
	f.Add(failure)
	for _, fr := range []frame2{{Type: frameCall, Payload: call}, {Type: frameReply, Payload: []byte(`{"files":["f"]}`)}, {Type: frameError, Payload: failure}} {
		var framed bytes.Buffer
		if err := writeFrame2(&framed, fr.Type, 0, 9, fr.Payload); err != nil {
			f.Fatal(err)
		}
		f.Add(framed.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		start := frameBufs.balance()
		if fr, err := readFrame2(bytes.NewReader(data)); err == nil {
			if fr.Type == 0 || fr.Type > frameReply {
				t.Fatalf("accepted frame with invalid type %d", fr.Type)
			}
			fr.release()
		}
		// The payload decoders must be total functions over []byte.
		if h, params, err := decodeCall(data); err == nil && 12+len(h.From)+len(h.Method)+len(params) != len(data) {
			t.Fatalf("call header %+v and %d params bytes do not add up to the %d-byte payload", h, len(params), len(data))
		}
		_, _ = decodeOpenWrite(data)
		_, _ = decodeOpenRead(data)
		if acks, err := decodeAcks(data); err == nil {
			for _, e := range acks {
				_ = e.err()
			}
		}
		_ = decodeErrorFrame(data)
		_, _ = decodeReadHdr(data)
		if got := frameBufs.balance(); got != start {
			t.Fatalf("pool balance drifted %d -> %d", start, got)
		}
	})
}

// FuzzChunkReassembly streams an arbitrary payload through the chunked
// frame encoding at an arbitrary chunk size and asserts the
// reassembled bytes are identical — the invariant the pipeline relay
// and the streaming read both stand on.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte(""), uint32(1))
	f.Add([]byte("hello, world"), uint32(5))
	f.Add(bytes.Repeat([]byte{0xA5}, 4096), uint32(1024))

	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint32) {
		start := frameBufs.balance()
		size := int(chunkSize % MaxChunkPayload)
		if size == 0 {
			size = 1
		}
		var wire bytes.Buffer
		sid := uint64(len(data)) + 1
		for off := 0; ; {
			n := len(data) - off
			if n > size {
				n = size
			}
			last := off+n == len(data)
			var flags uint16
			if last {
				flags = flagLast
			}
			if err := writeFrame2(&wire, frameChunk, flags, sid, data[off:off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
			if last {
				break
			}
		}

		got := make([]byte, 0, len(data))
		for {
			fr, err := readFrame2(&wire)
			if err != nil {
				t.Fatalf("decode after %d bytes: %v", len(got), err)
			}
			if fr.Type != frameChunk || fr.Stream != sid {
				t.Fatalf("frame %d/%d mismatch: %+v", fr.Type, fr.Stream, fr)
			}
			got = append(got, fr.Payload...)
			last := fr.last()
			fr.release()
			if last {
				break
			}
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("reassembly differs: %d vs %d bytes", len(got), len(data))
		}
		if wire.Len() != 0 {
			t.Fatalf("%d trailing bytes after last chunk", wire.Len())
		}
		if got := frameBufs.balance(); got != start {
			t.Fatalf("pool balance drifted %d -> %d", start, got)
		}
	})
}
