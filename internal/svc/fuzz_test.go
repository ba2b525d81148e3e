package svc

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/adaptsim/adapt/internal/dfs"
)

// Fuzz targets for the wire codec (wire.go), the whole of it: calls,
// replies and errors ride the same frames block streams do. The
// decoders face bytes straight off a socket, so the contract under
// arbitrary input is: never panic, never allocate unboundedly, and
// never write where the caller did not ask.
//
// Seed corpus lives in testdata/fuzz/<Target>/ alongside the f.Add
// seeds below; `make fuzz-smoke` gives each target a short randomized
// budget in CI.

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader and every
// payload decoder. The reader runs twice: with no destination, and with
// one of dstLen bytes, which a chunk that fits must land in — never past
// len(dst) — while every other accepted frame's payload must lie outside
// dst's backing array, whole, exactly as the first read returned it. An
// accepted frame's sum is its payload's CRC32C, the sum a DataNode
// keeps for a chunk and a reader folds into a block's.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{frameVersion}, uint16(1))
	// A well-formed chunk frame, so mutations explore near-valid space,
	// with a destination it fits, one it fits exactly, one too small.
	var valid bytes.Buffer
	if err := writeFrame2(&valid, frameChunk, flagLast, 7, []byte("block bytes")); err != nil {
		f.Fatal(err)
	}
	for _, dstLen := range []uint16{64, 11, 10} {
		f.Add(valid.Bytes(), dstLen)
	}
	f.Add(openWrite{Block: 3, Size: 1024, From: "nn", Chain: []chainEntry{{Node: 1, Addr: "127.0.0.1:9"}}}.appendWire(nil), uint16(0))
	f.Add(ackList{{Node: 2, OK: true}, {Node: 3, failure: failure{Transient: true, Code: "node_down", Msg: "down"}}}.appendWire(nil), uint16(0))
	// A call, its reply and its error, framed and as bare payloads.
	call := encodeCall(callHeader{DeadlineMS: 1500, From: "shell", Method: "nn.locate"}, nameParams{Name: "f"}.appendWire(nil))
	failed := failedAck(0, dfs.ErrFileNotFound).failure.appendWire(nil)
	f.Add(call, uint16(0))
	f.Add(failed, uint16(0))
	for _, fr := range []frame2{{Type: frameCall, Payload: call}, {Type: frameReply, Payload: listResult{Files: []string{"f"}}.appendWire(nil)}, {Type: frameError, Payload: failed}} {
		var framed bytes.Buffer
		if err := writeFrame2(&framed, fr.Type, 0, 9, fr.Payload); err != nil {
			f.Fatal(err)
		}
		f.Add(framed.Bytes(), uint16(4096))
	}

	f.Fuzz(func(t *testing.T, data []byte, dstLen uint16) {
		plain, perr := readFrame2(bytes.NewReader(data), nil)
		if perr == nil && (plain.Type == 0 || plain.Type > frameReply) {
			t.Fatalf("accepted frame with invalid type %d", plain.Type)
		}

		// The destination sits in a larger backing array whose tail is a
		// guard pattern: capacity past len(dst) is not the reader's.
		const guard = 0xA5
		backing := bytes.Repeat([]byte{guard}, int(dstLen)+64)
		dst := backing[:dstLen]
		fr, err := readFrame2(bytes.NewReader(data), dst)
		if (err == nil) != (perr == nil) {
			t.Fatalf("destination changed the verdict: %v without, %v with", perr, err)
		}
		if err == nil {
			fits := fr.Type == frameChunk && len(fr.Payload) <= len(dst)
			switch {
			case fr.Type != plain.Type || fr.Flags != plain.Flags || fr.Stream != plain.Stream || !bytes.Equal(fr.Payload, plain.Payload):
				t.Fatalf("destination changed the frame: %+v, want %+v", fr, plain)
			case len(fr.Payload) != int(binary.BigEndian.Uint32(data[12:16])):
				t.Fatalf("a frame announcing %d bytes was accepted with %d", binary.BigEndian.Uint32(data[12:16]), len(fr.Payload))
			case fr.sum != dfs.Checksum(fr.Payload) || plain.sum != fr.sum:
				t.Fatalf("an accepted frame's sum %#x (%#x without a destination) is not its payload's CRC32C %#x", fr.sum, plain.sum, dfs.Checksum(fr.Payload))
			case fits && len(fr.Payload) > 0 && &fr.Payload[0] != &dst[0]:
				t.Fatalf("a %d-byte chunk that fits a %d-byte destination was not read into it", len(fr.Payload), len(dst))
			case !fits && shares(fr.Payload, backing):
				t.Fatalf("a type %d frame of %d bytes shares the backing array of a %d-byte destination", fr.Type, len(fr.Payload), len(dst))
			}
		}
		for i, b := range backing[dstLen:] {
			if b != guard {
				t.Fatalf("the reader wrote %d bytes past a %d-byte destination", i+1, dstLen)
			}
		}
		// The payload decoders must be total functions over []byte
		// (FuzzDecodeValues feeds every transport value's decoder too),
		// and a call header is exactly the bytes before its params.
		if h, params, err := decodeCall(data); err == nil && !bytes.Equal(h.appendWire(nil), data[:len(data)-len(params)]) {
			t.Fatalf("call header %+v does not re-encode to the %d bytes before its params", h, len(data)-len(params))
		}
		if acks, err := decodeAcks(data); err == nil {
			for _, e := range acks {
				_ = e.err()
			}
		}
		_ = decodeErrorFrame(data)
	})
}

// TestDecodeFrameCorpusDecodes: FuzzDecodeFrame's committed inputs are
// of the current wire, so they seed near-valid frames instead of
// stopping at the version byte. Every valid_* input is a frame
// readFrame2 accepts, and its payload — and every *_payload input — is
// exactly the value its name says (a chunk's payload is bytes, not a
// value).
func TestDecodeFrameCorpusDecodes(t *testing.T) {
	as := func(v valueReader) func([]byte) bool { return func(p []byte) bool { return decodeValue(p, v) } }
	call := func(p []byte) bool {
		_, params, err := decodeCall(p)
		return err == nil && decodeValue(params, &nameParams{})
	}
	chunk := func([]byte) bool { return true }
	decodes := map[string]func([]byte) bool{
		"valid_call": call, "call_payload": call,
		"valid_call_error": as(&failure{}), "error_payload": as(&failure{}),
		"open_write_payload": as(&openWrite{}),
		"valid_chunk":        chunk, "valid_chunk_short_dst": chunk,
		"valid_reply":     as(&listResult{}),
		"valid_setup_ack": as(&ackList{}),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		name := e.Name()
		framed := strings.HasPrefix(name, "valid_")
		if !framed && !strings.HasSuffix(name, "_payload") {
			continue
		}
		check, ok := decodes[name]
		if !ok {
			t.Fatalf("%s: no value named for it here", name)
		}
		seen++
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if lines[0] != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: not a corpus file whose first argument is []byte: %v", name, err)
		}
		p := []byte(data)
		if framed {
			fr, err := readFrame2(bytes.NewReader(p), nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p = fr.Payload
		}
		if !check(p) {
			t.Fatalf("%s: payload %x does not decode", name, p)
		}
	}
	if seen != len(decodes) {
		t.Fatalf("%d of the %d inputs named here are in %s", seen, len(decodes), dir)
	}
}

// shares reports whether p overlaps backing: it flips p's bytes, looks
// for a change in backing, and flips them back.
func shares(p, backing []byte) bool {
	before := bytes.Clone(backing)
	for i := range p {
		p[i] ^= 0xFF
	}
	changed := !bytes.Equal(backing, before)
	for i := range p {
		p[i] ^= 0xFF
	}
	return changed
}

// FuzzChunkReassembly streams an arbitrary payload through the chunked
// frame encoding at an arbitrary chunk size and asserts the
// reassembled bytes are identical — the invariant the pipeline relay
// and the streaming read both stand on. The input is capped at
// maxInput bytes, so at most maxInput frames: the engine minimizes
// each new input by trying to remove every span of its bytes, and on
// the multi-KiB inputs it grows that took most of the target's time.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte(""), uint32(1))
	f.Add([]byte("hello, world"), uint32(5))
	f.Add(bytes.Repeat([]byte{0xA5}, 256), uint32(64))

	const maxInput = 256
	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint32) {
		data = data[:min(len(data), maxInput)]
		size := max(int(chunkSize%MaxChunkPayload), 1)
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

		// Reassemble as the relay and the streaming read do: every chunk
		// read straight into its place in one buffer of the block's size.
		got := make([]byte, len(data))
		n := 0
		for {
			fr, err := readFrame2(&wire, got[n:])
			if err != nil {
				t.Fatalf("decode after %d bytes: %v", n, err)
			}
			if fr.Type != frameChunk || fr.Stream != sid {
				t.Fatalf("frame %d/%d mismatch: %+v", fr.Type, fr.Stream, fr)
			}
			if len(fr.Payload) > 0 && (n+len(fr.Payload) > len(got) || &fr.Payload[0] != &got[n]) {
				t.Fatalf("a %d-byte chunk at offset %d was not read into its place", len(fr.Payload), n)
			}
			n += len(fr.Payload)
			if fr.last() {
				break
			}
		}
		if n != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("reassembly differs: %d vs %d bytes", n, len(data))
		}
		if wire.Len() != 0 {
			t.Fatalf("%d trailing bytes after last chunk", wire.Len())
		}
	})
}
