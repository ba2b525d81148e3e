package svc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// requirePoolBalance asserts that the shared frame-buffer pool returns
// to the balance recorded before the test body ran. Background
// goroutines from neighbouring tests may still be draining frames, so
// the check polls briefly instead of failing on the first read.
func requirePoolBalance(t *testing.T, start int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if frameBufs.balance() == start {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool balance = %d, want %d: a wire buffer leaked", frameBufs.balance(), start)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFrame2RoundTrip(t *testing.T) {
	start := frameBufs.balance()
	payloads := [][]byte{nil, {0x42}, bytes.Repeat([]byte{0xAB}, 1000), payload(DefaultChunkSize)}
	for typ := frameOpenWrite; typ <= frameReadHdr; typ++ {
		for _, flags := range []uint16{0, flagLast} {
			for pi, p := range payloads {
				var buf bytes.Buffer
				sid := uint64(typ)<<32 | uint64(pi)
				if err := writeFrame2(&buf, typ, flags, sid, p); err != nil {
					t.Fatal(err)
				}
				f, err := readFrame2(&buf)
				if err != nil {
					t.Fatalf("type %d flags %d payload %d: %v", typ, flags, pi, err)
				}
				if f.Type != typ || f.Flags != flags || f.Stream != sid {
					t.Fatalf("header roundtrip: %+v", f)
				}
				if !bytes.Equal(f.Payload, p) {
					t.Fatalf("type %d: payload mismatch (%d vs %d bytes)", typ, len(f.Payload), len(p))
				}
				if f.last() != (flags&flagLast != 0) {
					t.Fatalf("last() = %v for flags %d", f.last(), flags)
				}
				f.release()
				f.release() // double release must be a no-op
			}
		}
	}
	requirePoolBalance(t, start)
}

func TestWriteFrame2RejectsOversizePayload(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame2(&buf, frameChunk, 0, 1, make([]byte, MaxChunkPayload+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// encodeFrame2 renders one valid frame to bytes for corruption tests.
func encodeFrame2(t *testing.T, typ uint8, flags uint16, stream uint64, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame2(&buf, typ, flags, stream, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFrame2Rejects is the corruption contract: every malformed
// frame is refused with the right sentinel, and no pooled buffer leaks
// on any rejection path.
func TestReadFrame2Rejects(t *testing.T) {
	start := frameBufs.balance()
	valid := encodeFrame2(t, frameChunk, flagLast, 7, []byte("block bytes"))

	corrupt := func(off int, b byte) []byte {
		c := bytes.Clone(valid)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"bad version", corrupt(0, 0x01), ErrBadFrame},
		{"zero type", corrupt(1, 0), ErrBadFrame},
		{"unknown type", corrupt(1, frameReadHdr+1), ErrBadFrame},
		// A flipped-but-valid type must be caught by the CRC, which
		// covers the header prefix, not just the payload.
		{"flipped valid type", corrupt(1, frameOpenRead), ErrBadFrame},
		{"flipped flag", corrupt(2, 0xFF), ErrBadFrame},
		{"flipped stream id", corrupt(4, 0xFF), ErrBadFrame},
		{"payload corruption", corrupt(headerSize+3, 'X'), ErrBadFrame},
		{"crc corruption", corrupt(16, valid[16]^0x80), ErrBadFrame},
		{"oversize payload length", func() []byte {
			c := bytes.Clone(valid)
			binary.BigEndian.PutUint32(c[12:16], MaxChunkPayload+1)
			return c
		}(), ErrFrameTooLarge},
		{"truncated header", valid[:headerSize-3], nil},
		{"truncated payload", valid[:headerSize+4], nil},
		{"empty input", nil, nil},
	}
	for _, tc := range cases {
		f, err := readFrame2(bytes.NewReader(tc.raw))
		if err == nil {
			f.release()
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	requirePoolBalance(t, start)
}

// TestWireBufferPoolBalances is the leak contract for the shared pool:
// v1 frame bodies and v2 payloads must be returned on success and on
// every error path, and oversized buffers must still be counted when
// the pool declines to retain them.
func TestWireBufferPoolBalances(t *testing.T) {
	start := frameBufs.balance()

	// v1 success, garbage, and oversize paths.
	var v1 bytes.Buffer
	if err := writeFrame(&v1, request{ID: 1, Method: "nn.list"}); err != nil {
		t.Fatal(err)
	}
	var req request
	if err := readFrame(&v1, &req); err != nil {
		t.Fatal(err)
	}
	v1.Reset()
	if err := writeFrame(&v1, "not an envelope"); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(&v1, &req); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage: %v", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxControlFrame+1)
	if err := readFrame(bytes.NewReader(hdr[:]), &req); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
	// Truncated v1 body: the buffer was acquired, then the read fails.
	binary.BigEndian.PutUint32(hdr[:], 100)
	if err := readFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), &req); err == nil {
		t.Fatal("truncated v1 body accepted")
	}

	// v2 success and error paths.
	raw := encodeFrame2(t, frameChunk, flagLast, 9, []byte("abc"))
	f, err := readFrame2(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	f.release()
	bad := bytes.Clone(raw)
	bad[headerSize] ^= 0xFF
	if _, err := readFrame2(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt v2 frame accepted")
	}
	if _, err := readFrame2(bytes.NewReader(raw[:headerSize+1])); err == nil {
		t.Fatal("truncated v2 payload accepted")
	}

	// A buffer above the retention cap must still balance get/put.
	big := frameBufs.get(maxPooledBuf + 1)
	frameBufs.put(big)

	requirePoolBalance(t, start)
}

func TestOpenWriteCodec(t *testing.T) {
	in := openWrite{
		Block:      42,
		Size:       1 << 20,
		DeadlineMS: 1500,
		From:       "namenode",
		Chain: []chainEntry{
			{Node: 3, Addr: "127.0.0.1:9001"},
			{Node: 7, Addr: "127.0.0.1:9002"},
		},
	}
	p := encodeOpenWrite(in)
	out, err := decodeOpenWrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Block != in.Block || out.Size != in.Size || out.DeadlineMS != in.DeadlineMS || out.From != in.From {
		t.Fatalf("roundtrip mismatch: %+v != %+v", out, in)
	}
	if len(out.Chain) != 2 || out.Chain[0] != in.Chain[0] || out.Chain[1] != in.Chain[1] {
		t.Fatalf("chain mismatch: %+v", out.Chain)
	}

	// Empty chain round-trips too (the tail hop of a pipeline).
	tail, err := decodeOpenWrite(encodeOpenWrite(openWrite{Block: 1, From: "dn2"}))
	if err != nil || len(tail.Chain) != 0 {
		t.Fatalf("tail hop: %+v, %v", tail, err)
	}

	for i := 1; i < len(p); i++ {
		if _, err := decodeOpenWrite(p[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := decodeOpenWrite(append(bytes.Clone(p), 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte: %v", err)
	}

	neg := encodeOpenWrite(openWrite{Block: 1, Size: -1})
	if _, err := decodeOpenWrite(neg); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("negative size: %v", err)
	}

	huge := appendUint64(nil, 1)
	huge = appendUint64(huge, 0)
	huge = appendUint64(huge, 0)
	huge = appendString(huge, "x")
	huge = appendUint16(huge, maxChainLen+1)
	if _, err := decodeOpenWrite(huge); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized chain: %v", err)
	}
}

func TestOpenReadCodec(t *testing.T) {
	in := openRead{Block: 99, DeadlineMS: 250, From: "shell"}
	out, err := decodeOpenRead(encodeOpenRead(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip mismatch: %+v != %+v", out, in)
	}
	p := encodeOpenRead(in)
	for i := 1; i < len(p); i++ {
		if _, err := decodeOpenRead(p[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestReadHdrCodec(t *testing.T) {
	for _, size := range []int64{0, 1, 1 << 30} {
		got, err := decodeReadHdr(encodeReadHdr(size))
		if err != nil || got != size {
			t.Fatalf("size %d: got %d, %v", size, got, err)
		}
	}
	if _, err := decodeReadHdr(encodeReadHdr(-1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("negative size: %v", err)
	}
	if _, err := decodeReadHdr([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: %v", err)
	}
}

func TestAckCodec(t *testing.T) {
	in := []ackEntry{
		{Node: 0, OK: true},
		{Node: 5, Transient: true, Code: "node_down", Msg: "dfs: node 5 down"},
		{Node: 9, Code: "checksum", Msg: "dfs: block 3 corrupt"},
	}
	out, err := decodeAcks(encodeAcks(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
	empty, err := decodeAcks(encodeAcks(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty acks: %v, %v", empty, err)
	}

	p := encodeAcks(in)
	for i := 1; i < len(p); i++ {
		if _, err := decodeAcks(p[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := decodeAcks(appendUint16(nil, maxChainLen+1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized ack list: %v", err)
	}
}

// TestV2ErrorTaxonomy is the v2 counterpart of TestErrorsCrossTheWire:
// for EVERY wire code registered in errors.go / wire.go, an error
// wrapping that sentinel must survive both v2 encodings — the ack entry
// of a pipeline commit and the error frame of a failed read — still
// matching errors.Is, keeping its dfs.IsTransient classification, and
// printing the same message.
func TestV2ErrorTaxonomy(t *testing.T) {
	if len(wireCodes) == 0 {
		t.Fatal("no wire codes registered")
	}
	for _, ec := range wireCodes {
		src := fmt.Errorf("v2 taxonomy probe: %w", ec.sentinel)

		// Path 1: pipeline ack entry.
		acks, err := decodeAcks(encodeAcks([]ackEntry{failedAck(3, src)}))
		if err != nil {
			t.Fatalf("%s: %v", ec.code, err)
		}
		got := acks[0].err()
		if got == nil {
			t.Fatalf("%s: ack err() = nil", ec.code)
		}
		if !errors.Is(got, ec.sentinel) {
			t.Errorf("%s: ack error does not match sentinel", ec.code)
		}
		if dfs.IsTransient(got) != dfs.IsTransient(src) {
			t.Errorf("%s: ack transient = %v, want %v", ec.code, dfs.IsTransient(got), dfs.IsTransient(src))
		}
		if got.Error() != src.Error() {
			t.Errorf("%s: ack message %q != %q", ec.code, got.Error(), src.Error())
		}
		if acks[0].Node != 3 {
			t.Errorf("%s: ack node = %d", ec.code, acks[0].Node)
		}

		// Path 2: read error frame.
		got = decodeErrorFrame(encodeErrorFrame(src))
		if !errors.Is(got, ec.sentinel) {
			t.Errorf("%s: error frame does not match sentinel", ec.code)
		}
		if dfs.IsTransient(got) != dfs.IsTransient(src) {
			t.Errorf("%s: error frame transient = %v, want %v", ec.code, dfs.IsTransient(got), dfs.IsTransient(src))
		}
		if got.Error() != src.Error() {
			t.Errorf("%s: error frame message %q != %q", ec.code, got.Error(), src.Error())
		}
	}
}

func TestV2UnknownCodeStillCarriesMessage(t *testing.T) {
	e := ackEntry{Node: 1, Code: "martian", Msg: "boom", Transient: true}
	got := e.err()
	if got == nil || got.Error() != "boom" {
		t.Fatalf("err() = %v, want message boom", got)
	}
	if !dfs.IsTransient(got) {
		t.Fatal("transient flag lost")
	}
	var re *RemoteError
	if !errors.As(got, &re) {
		t.Fatalf("got %T, want *RemoteError", got)
	}
	if errors.Unwrap(re) != nil {
		t.Fatal("unknown code must not unwrap to a sentinel")
	}

	if err := decodeErrorFrame([]byte{0}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short error frame: %v", err)
	}
}

// TestAppendStringTruncates: endpoint names and error messages longer
// than the uint16 length prefix are clipped, never wrapped around.
func TestAppendStringTruncates(t *testing.T) {
	long := strings.Repeat("m", 0x10001)
	b := appendString(nil, long)
	r := binReader{b: b}
	got := r.str()
	if !r.done() || len(got) != 0xffff {
		t.Fatalf("len = %d, done = %v", len(got), r.done())
	}
}
