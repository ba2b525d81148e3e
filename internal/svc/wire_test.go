package svc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
)

func TestFrame2RoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {0x42}, bytes.Repeat([]byte{0xAB}, 1000), payload(DefaultChunkSize)}
	for typ := frameOpenWrite; typ <= frameReply; typ++ {
		for _, flags := range []uint16{0, flagLast} {
			for pi, p := range payloads {
				var buf bytes.Buffer
				sid := uint64(typ)<<32 | uint64(pi)
				if err := writeFrame2(&buf, typ, flags, sid, p); err != nil {
					t.Fatal(err)
				}
				f, err := readFrame2(&buf, nil)
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
			}
		}
	}
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
// frame is refused with the right sentinel.
func TestReadFrame2Rejects(t *testing.T) {
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
		{"unknown type", corrupt(1, frameReply+1), ErrBadFrame},
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
		_, err := readFrame2(bytes.NewReader(tc.raw), nil)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// decodeAcks reads a setup or commit ack's payload, for tests that
// speak the stream protocol by hand.
func decodeAcks(p []byte) (ackList, error) {
	var acks ackList
	if !decodeValue(p, &acks) {
		return nil, ErrBadFrame
	}
	return acks, nil
}

// decodeReadHdr reads a read header's payload.
func decodeReadHdr(p []byte) (int64, error) {
	var h readHdr
	if !decodeValue(p, &h) {
		return 0, ErrBadFrame
	}
	return h.Size, nil
}

// TestOpenWriteCodec: an open-write round trips with a chain and
// without one (the tail hop of a pipeline). TestValuesRoundTrip covers
// its prefixes and a trailing byte, TestValueDecodersRefuseNonCanonical
// a negative size and a chain past maxChainLen.
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
	for _, ow := range []openWrite{in, {Block: 1, From: "dn2"}} {
		var out openWrite
		if !decodeValue(ow.appendWire(nil), &out) || !reflect.DeepEqual(out, ow) {
			t.Fatalf("round trip: %+v, want %+v", out, ow)
		}
	}
}

func TestOpenReadCodec(t *testing.T) {
	in := openRead{Block: 99, DeadlineMS: 250, From: "shell"}
	var out openRead
	if !decodeValue(in.appendWire(nil), &out) || out != in {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
}

func TestReadHdrCodec(t *testing.T) {
	for _, size := range []int64{0, 1, 1 << 30} {
		got, err := decodeReadHdr(readHdr{Size: size}.appendWire(nil))
		if err != nil || got != size {
			t.Fatalf("size %d: got %d, %v", size, got, err)
		}
	}
	if _, err := decodeReadHdr(readHdr{Size: -1}.appendWire(nil)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("negative size: %v", err)
	}
	if _, err := decodeReadHdr([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: %v", err)
	}
}

// TestAckCodec: an ack list round trips entry for entry, an empty one
// too, and one longer than a chain of maxChainLen answers with is
// ErrBadFrame.
func TestAckCodec(t *testing.T) {
	in := ackList{
		{Node: 0, OK: true},
		{Node: 5, failure: failure{Transient: true, Code: "node_down", Msg: "dfs: node 5 down"}},
		{Node: 9, failure: failure{Code: "checksum", Msg: "dfs: block 3 corrupt"}},
	}
	out, err := decodeAcks(in.appendWire(nil))
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %+v, %v, want %+v", out, err, in)
	}
	if empty, err := decodeAcks(ackList(nil).appendWire(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty acks: %v, %v", empty, err)
	}
	full := make(ackList, maxChainLen+1)
	if _, err := decodeAcks(full.appendWire(nil)); err != nil {
		t.Fatalf("a head and a chain of %d: %v", maxChainLen, err)
	}
	if _, err := decodeAcks(append(full, ackEntry{}).appendWire(nil)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized ack list: %v", err)
	}
}

// TestV2ErrorTaxonomy is the ack-entry counterpart of
// TestErrorsCrossTheWire: for EVERY wire code registered in errors.go /
// wire.go, an error wrapping that sentinel must survive both encodings — the ack entry
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
		acks, err := decodeAcks(ackList{failedAck(3, src)}.appendWire(nil))
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
		got = decodeErrorFrame(failedAck(0, src).failure.appendWire(nil))
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
	e := ackEntry{Node: 1, failure: failure{Transient: true, Code: "martian", Msg: "boom"}}
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

// TestErrorTextCrossesTheWireAsBoundedUTF8: a handler error whose text
// is not UTF-8, or runs past maxErrorText bytes with a rune across the
// cut, reaches the caller as a RemoteError that keeps its sentinel and
// its transient classification, with a message of valid UTF-8 and at
// most maxErrorText bytes: the invalid bytes replaced, the long text cut
// before the rune.
func TestErrorTextCrossesTheWireAsBoundedUTF8(t *testing.T) {
	// The euro sign's three bytes start at byte 65534: a cut at
	// maxErrorText would split it.
	pad := maxErrorText - 1 - len(dfs.ErrNodeDown.Error()+": ")
	long := fmt.Errorf("%w: %s\u20ac and more", dfs.ErrNodeDown, strings.Repeat("x", pad))
	cases := []struct {
		err      error
		sentinel error
		want     string
	}{
		{fmt.Errorf("%w: open /wal/\xff\xfe: no such file", dfs.ErrFileNotFound), dfs.ErrFileNotFound,
			dfs.ErrFileNotFound.Error() + ": open /wal/\ufffd: no such file"},
		{long, dfs.ErrNodeDown, long.Error()[:maxErrorText-1]},
	}
	methods := methodTable{}
	for i, tc := range cases {
		methods[fmt.Sprint(i)] = rpcMethod{serve: bare(func(context.Context) (wireValue, error) { return nil, tc.err })}
	}
	srv := NewServer("test", nil, methods)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := &streamPool{local: "tester"}
	defer p.close()
	for i, tc := range cases {
		err := p.call(ctx, srv.Addr(), "test", fmt.Sprint(i), nil, nil)
		var re *RemoteError
		if !errors.As(err, &re) || !errors.Is(err, tc.sentinel) || dfs.IsTransient(err) != dfs.IsTransient(tc.err) {
			t.Fatalf("case %d: err = %v, want a RemoteError matching %v, transient %v", i, err, tc.sentinel, dfs.IsTransient(tc.err))
		}
		if !utf8.ValidString(re.Msg) || len(re.Msg) > maxErrorText || re.Msg != tc.want {
			t.Fatalf("case %d: a %d-byte message (valid UTF-8: %v), want the %d bytes %.60q...", i, len(re.Msg), utf8.ValidString(re.Msg), len(tc.want), tc.want)
		}
	}
}

// encodeCall builds a call frame's payload: the header, then params
// verbatim, for tests that frame calls by hand.
func encodeCall(h callHeader, params []byte) []byte {
	return append(h.appendWire(nil), params...)
}

// TestFrameRoundTrip: a call — header, then params verbatim — its
// reply and its error each survive a frame.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := callHeader{DeadlineMS: 1500, From: "shell", Method: "nn.locate"}
	params := []byte(`{"name":"f"}`)
	if err := writeFrame2(&buf, frameCall, 0, 7, encodeCall(in, params)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame2(&buf, frameReply, 0, 7, []byte(`{"meta":null}`)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame2(&buf, frameError, 0, 7, failedAck(0, dfs.ErrFileNotFound).failure.appendWire(nil)); err != nil {
		t.Fatal(err)
	}

	f, err := readFrame2(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, gotParams, err := decodeCall(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != frameCall || f.Stream != 7 || out != in {
		t.Fatalf("roundtrip mismatch: type %d id %d %+v != %+v", f.Type, f.Stream, out, in)
	}
	if string(gotParams) != string(params) {
		t.Fatalf("params %q != %q", gotParams, params)
	}

	if f, err = readFrame2(&buf, nil); err != nil || f.Type != frameReply || string(f.Payload) != `{"meta":null}` {
		t.Fatalf("reply: %+v, %v", f, err)
	}
	if f, err = readFrame2(&buf, nil); err != nil || f.Type != frameError {
		t.Fatalf("error frame: %+v, %v", f, err)
	}
	if err := decodeErrorFrame(f.Payload); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("decoded error = %v, want ErrFileNotFound", err)
	}

	// No params is a valid call (nn.list): the header is the payload.
	if _, rest, err := decodeCall(encodeCall(in, nil)); err != nil || len(rest) != 0 {
		t.Fatalf("param-less call: rest %q, %v", rest, err)
	}
}

// frameHeader renders a header announcing n payload bytes that never
// follow.
func frameHeader(typ uint8, n uint32) []byte {
	hdr := (&frame2{Type: typ, Stream: 1}).header()
	binary.BigEndian.PutUint32(hdr[12:16], n)
	return hdr[:]
}

// refusalHeap bounds the heap growth that refusing an oversize header
// may cost: far below the smallest size such a header announces, so a
// decoder that allocated the announced payload before checking the
// bound would exceed it.
const refusalHeap = 1 << 20

// heapGrowth returns how many bytes the heap allocated while fn ran.
func heapGrowth(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameRejectsOversize: a header announcing more than its
// type's bound — one byte over, or the 100 MiB a base64 block once
// needed — is refused before anything is allocated for it, on the
// decoder and on a live NameNode port; the largest file the NameNode
// will allocate still fits a reply.
func TestReadFrameRejectsOversize(t *testing.T) {
	for _, tc := range []struct {
		typ uint8
		n   uint32
	}{
		{frameCall, MaxControlFrame + 1}, {frameReply, MaxControlFrame + 1},
		{frameCall, 100 << 20}, {frameReply, 100 << 20},
		{frameChunk, MaxChunkPayload + 1}, {frameError, MaxChunkPayload + 1},
	} {
		hdr := frameHeader(tc.typ, tc.n)
		var err error
		grew := heapGrowth(func() { _, err = readFrame2(bytes.NewReader(hdr), nil) })
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("type %d, %d bytes: err = %v, want ErrFrameTooLarge", tc.typ, tc.n, err)
		}
		if grew > refusalHeap {
			t.Fatalf("type %d, %d bytes: refusing the header allocated %d bytes, want under %d", tc.typ, tc.n, grew, refusalHeap)
		}
	}

	fm := dfs.FileMeta{Name: strings.Repeat("n", 140), Size: 4 << 40, BlockSize: 64 << 20, Replication: 3}
	for i := 0; i < dfs.MaxFileBlocks; i++ {
		fm.Blocks = append(fm.Blocks, dfs.BlockMeta{
			ID: dfs.BlockID(1<<32 + i), File: fm.Name, Index: i, Size: fm.BlockSize,
			Replicas: []cluster.NodeID{100, 200, 300}, Checksum: math.MaxUint32,
		})
	}
	reply := (*fileMeta)(&fm).appendWire(nil)
	var wire bytes.Buffer
	if err := writeFrame2(&wire, frameReply, 0, 1, reply); err != nil {
		t.Fatalf("a %d-block FileMeta (%d bytes) does not fit a reply: %v", len(fm.Blocks), len(reply), err)
	}
	f, err := readFrame2(&wire, nil)
	if err != nil || !bytes.Equal(f.Payload, reply) {
		t.Fatalf("%d-byte reply did not survive the wire: %v", len(reply), err)
	}
	if err := writeFrame2(io.Discard, frameReply, 0, 1, make([]byte, MaxControlFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("one byte over the bound: err = %v, want ErrFrameTooLarge", err)
	}

	lc := testCluster(t, 1, nil)
	nc, err := net.Dial("tcp", lc.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := frameHeader(frameCall, 100<<20)
	var werr, rerr error
	grew := heapGrowth(func() {
		if _, werr = nc.Write(hdr); werr != nil {
			return
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		_, rerr = nc.Read(one[:])
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if !errors.Is(rerr, io.EOF) {
		t.Fatalf("namenode kept a connection announcing a 100 MiB call: read err = %v, want EOF", rerr)
	}
	if grew > refusalHeap {
		t.Fatalf("refusing a 100 MiB call allocated %d bytes, want under %d", grew, refusalHeap)
	}
}

// BenchmarkReadControlFrame reads one reply frame of 75 bytes, the
// mean control payload of the small_files workload, off an in-memory
// reader: what every frame but a chunk costs to receive.
func BenchmarkReadControlFrame(b *testing.B) {
	var wire bytes.Buffer
	if err := writeFrame2(&wire, frameReply, 0, 7, bytes.Repeat([]byte{'x'}, 75)); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	var r bytes.Reader
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, err := readFrame2(&r, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadFrameRejectsGarbage: bytes that are no frame and a call frame
// whose payload is no call header are ErrBadFrame; a well-framed call
// whose params are not the method's is refused as one by a live server,
// which keeps serving.
func TestReadFrameRejectsGarbage(t *testing.T) {
	if _, err := readFrame2(strings.NewReader("not a frame, not a frame at all"), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("garbage bytes: err = %v, want ErrBadFrame", err)
	}
	for _, p := range [][]byte{nil, {0, 0, 0}, appendText(appendUint64(nil, 5), "shell")} {
		if _, _, err := decodeCall(p); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("call payload %x: err = %v, want ErrBadFrame", p, err)
		}
	}

	lc := testCluster(t, 1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := &streamPool{local: "tester"}
	defer p.close()
	var refused *RemoteError
	if err := p.call(ctx, lc.NN.Addr(), "namenode", "nn.stat", rawValue("not an object"), nil); !errors.As(err, &refused) || !strings.Contains(refused.Msg, ErrBadFrame.Error()) {
		t.Fatalf("garbage params: err = %v, want the server's ErrBadFrame", err)
	}
	if err := p.call(ctx, lc.NN.Addr(), "namenode", "nn.list", nil, &listResult{}); err != nil {
		t.Fatalf("call after garbage params: %v", err)
	}
}

// TestBadParamsCrossTheWireAsErrBadFrame: a live server's refusal of
// params it cannot decode reaches the caller still matching ErrBadFrame,
// and as permanent — retrying the same bytes cannot help.
func TestBadParamsCrossTheWireAsErrBadFrame(t *testing.T) {
	lc := testCluster(t, 1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := &streamPool{local: "tester"}
	defer p.close()
	err := p.call(ctx, lc.NN.Addr(), "namenode", "nn.locate", rawValue{1, 2, 3}, nil)
	if !errors.Is(err, ErrBadFrame) || dfs.IsTransient(err) {
		t.Fatalf("malformed params: err = %v (transient %v), want a permanent ErrBadFrame", err, dfs.IsTransient(err))
	}
}

// TestErrorsCrossTheWire is the error-taxonomy contract: an error
// encoded on one side must, after decode, still satisfy errors.Is
// against the same sentinel, keep its transient classification and
// print the same message — for chains of any depth and for every
// registered wire code.
func TestErrorsCrossTheWire(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
	}{
		{fmt.Errorf("wrapped: %w", dfs.ErrFileNotFound), false},
		{fmt.Errorf("dfs: node 3 rejected put: %w", dfs.ErrNodeDown), true},
		{fmt.Errorf("dfs: block 9: %w", dfs.ErrChecksum), true},
		{fmt.Errorf("deep: %w", fmt.Errorf("mid: %w", dfs.ErrFileExists)), false},
		{fmt.Errorf("beat: %w", ErrStaleHeartbeat), false},
		{fmt.Errorf("drain: %w", ErrShuttingDown), false},
		{context.DeadlineExceeded, false},
	}
	if len(wireCodes) == 0 {
		t.Fatal("no wire codes registered")
	}
	for _, ec := range wireCodes {
		src := fmt.Errorf("taxonomy probe: %w", ec.sentinel)
		cases = append(cases, struct {
			err       error
			transient bool
		}{src, dfs.IsTransient(src)})
	}
	for _, tc := range cases {
		got := decodeErrorFrame(failedAck(0, tc.err).failure.appendWire(nil))
		// The decoded error must match the deepest registered sentinel.
		target := tc.err
		for errors.Unwrap(target) != nil {
			target = errors.Unwrap(target)
		}
		if !errors.Is(got, target) {
			t.Errorf("decoded %v does not match sentinel %v", got, target)
		}
		if dfs.IsTransient(got) != tc.transient {
			t.Errorf("decoded %v: transient = %v, want %v", got, dfs.IsTransient(got), tc.transient)
		}
		if got.Error() != tc.err.Error() {
			t.Errorf("message %q != %q", got.Error(), tc.err.Error())
		}
	}
}

func TestUnknownWireCodeStillCarriesMessage(t *testing.T) {
	got := decodeErrorFrame(failure{Transient: true, Code: "martian", Msg: "boom"}.appendWire(nil))
	if got == nil || got.Error() != "boom" {
		t.Fatalf("decodeErrorFrame = %v, want message boom", got)
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
	// An error frame is an error, even one with no code or message.
	if err := decodeErrorFrame(failure{}.appendWire(nil)); err == nil {
		t.Fatal("an empty error frame decoded to nil")
	}
}

func TestDeadlineBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	if got := deadlineBudget(context.Background(), now); got != 0 {
		t.Fatalf("no deadline: budget = %d, want 0", got)
	}
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(2*time.Second))
	defer cancel()
	if got := deadlineBudget(ctx, now); got != 2000 {
		t.Fatalf("budget = %d, want 2000", got)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), now.Add(-time.Second))
	defer cancel2()
	if got := deadlineBudget(expired, now); got != 1 {
		t.Fatalf("expired budget = %d, want 1", got)
	}

	// The receiving side: 0 is no deadline, a sane budget is itself, and
	// one that would overflow a Duration (or reads as negative) is
	// clamped, never a deadline already in the past.
	if ctx, cancel := budgetCtx(context.Background(), 0); ctx.Err() != nil {
		t.Fatal("no budget: context born dead")
	} else if _, ok := ctx.Deadline(); ok {
		t.Fatal("no budget: context has a deadline")
	} else {
		cancel()
	}
	for _, tc := range []struct {
		ms       int64
		min, max time.Duration
	}{
		{2000, time.Second, 2 * time.Second},
		{1 << 62, maxBudget - time.Minute, maxBudget},
		{math.MaxInt64, maxBudget - time.Minute, maxBudget},
		{math.MinInt64, maxBudget - time.Minute, maxBudget},
	} {
		ctx, cancel := budgetCtx(context.Background(), tc.ms)
		dl, ok := ctx.Deadline()
		if rem := time.Until(dl); !ok || ctx.Err() != nil || rem < tc.min || rem > tc.max {
			t.Errorf("budget %d ms: deadline in %v (set %v, err %v), want within [%v, %v]", tc.ms, rem, ok, ctx.Err(), tc.min, tc.max)
		}
		cancel()
	}
}
