package svc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
)

// Wire protocol v2: the binary block data path. The JSON envelope
// (wire.go) remains the control plane — metadata RPCs, heartbeats,
// deletes — while block bytes move as compact binary frames over
// dedicated streams: one TCP connection per pipeline write or
// streaming read, opened with a 4-byte preamble so both protocols
// share every listener.
//
// Frame layout (big-endian), 20-byte header:
//
//	offset 0      version byte (0x02)
//	offset 1      frame type
//	offset 2-3    flags (bit 0: last chunk of the stream)
//	offset 4-11   stream id
//	offset 12-15  payload length
//	offset 16-19  CRC32C over header[0:16] + payload
//
// The CRC covers the header prefix too, so a flipped type, flag, or
// length is caught, not just payload corruption. Chunk payloads are
// raw block bytes; control payloads (open, acks, errors) use a
// length-prefixed binary encoding, never JSON — the data plane stays
// allocation-light end to end.
const (
	frameVersion = 0x02
	headerSize   = 20

	// MaxChunkPayload bounds one v2 frame's payload. Blocks larger
	// than this cross the wire as multiple chunks.
	MaxChunkPayload = 4 << 20

	// DefaultChunkSize is the streaming granularity for block data:
	// large enough to amortize syscalls, small enough that pooled
	// buffers stay cache-friendly and partitions abort streams fast.
	DefaultChunkSize = 256 << 10
)

// dataPreamble is written immediately after dialing a v2 data stream;
// the serving side sniffs it to route the connection to the stream
// handler. Interpreted as a JSON frame length it exceeds MaxControlFrame,
// so a v2 stream hitting a v1-only endpoint fails loudly instead of
// being misparsed.
var dataPreamble = [4]byte{'A', 'B', '2', '\n'}

// Frame types.
const (
	frameOpenWrite uint8 = iota + 1 // writer -> DN: start a pipeline write
	frameOpenRead                   // reader -> DN: start a streaming read
	frameChunk                      // block bytes (flagLast marks the final chunk)
	frameSetupAck                   // DN -> upstream: per-node pipeline admission
	frameCommitAck                  // DN -> upstream: per-node commit status
	frameError                      // DN -> reader: the read failed, with taxonomy
	frameReadHdr                    // DN -> reader: total size of the coming stream
)

// flagLast marks the final chunk of a stream.
const flagLast uint16 = 1 << 0

// crcTable is the Castagnoli polynomial (CRC32C), hardware-accelerated
// on amd64/arm64 — the HDFS data-transfer checksum choice.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// bufPool recycles wire buffers so the hot path makes no per-frame
// allocations. Gets and puts are counted so tests can prove every
// acquired buffer is released on every code path, including errors —
// the discipline that keeps a streaming server from bloating under
// churn. put always counts the release even when the buffer is too
// large to retain.
type bufPool struct {
	pool sync.Pool
	gets atomic.Int64
	puts atomic.Int64
}

// maxPooledBuf caps the buffers the pool retains; anything larger is
// released to the GC after being counted.
const maxPooledBuf = 8 << 20

// get returns a length-n buffer, recycled when one with enough
// capacity is pooled.
func (p *bufPool) get(n int) []byte {
	p.gets.Add(1)
	if v := p.pool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this caller: retire it silently (it was
		// counted at its own get) and allocate fresh.
		p.pool.Put(v)
	}
	return make([]byte, n)
}

// put releases a buffer back to the pool.
func (p *bufPool) put(b []byte) {
	p.puts.Add(1)
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// balance returns outstanding gets (gets - puts); zero means every
// acquired buffer was released.
func (p *bufPool) balance() int64 { return p.gets.Load() - p.puts.Load() }

// frameBufs is the shared wire-buffer pool: v1 frame bodies, v2 chunk
// payloads, and block assembly buffers all draw from it.
var frameBufs bufPool

// frame2 is one decoded v2 frame. Payload is pooled: the receiver owns
// it and must release it via frameBufs.put exactly once.
type frame2 struct {
	Type    uint8
	Flags   uint16
	Stream  uint64
	Payload []byte
}

// last reports whether the frame closes its stream.
func (f *frame2) last() bool { return f.Flags&flagLast != 0 }

// release returns the frame's pooled payload; safe on a zero frame.
func (f *frame2) release() {
	if f.Payload != nil {
		frameBufs.put(f.Payload)
		f.Payload = nil
	}
}

// putHeader fills hdr for a frame with the given payload, computing
// the CRC over the header prefix and payload.
func putHeader(hdr *[headerSize]byte, typ uint8, flags uint16, stream uint64, payload []byte) {
	hdr[0] = frameVersion
	hdr[1] = typ
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint64(hdr[4:12], stream)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, hdr[:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(hdr[16:20], crc)
}

// writeFrame2 writes one v2 frame. The payload is written as-is
// (zero-copy); callers keep ownership.
func writeFrame2(w io.Writer, typ uint8, flags uint16, stream uint64, payload []byte) error {
	if len(payload) > MaxChunkPayload {
		return fmt.Errorf("%w: v2 payload %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [headerSize]byte
	putHeader(&hdr, typ, flags, stream, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("svc: write v2 header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("svc: write v2 payload: %w", err)
		}
	}
	return nil
}

// readFrame2 reads one v2 frame. On success the returned frame's
// payload is pooled and owned by the caller (release it once); on any
// error every acquired buffer has already been returned.
func readFrame2(r io.Reader) (frame2, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame2{}, fmt.Errorf("svc: read v2 header: %w", err)
	}
	if hdr[0] != frameVersion {
		return frame2{}, fmt.Errorf("%w: v2 version byte %#x", ErrBadFrame, hdr[0])
	}
	typ := hdr[1]
	if typ == 0 || typ > frameReadHdr {
		return frame2{}, fmt.Errorf("%w: v2 frame type %d", ErrBadFrame, typ)
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxChunkPayload {
		return frame2{}, fmt.Errorf("%w: v2 payload %d bytes", ErrFrameTooLarge, n)
	}
	payload := frameBufs.get(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		frameBufs.put(payload)
		return frame2{}, fmt.Errorf("svc: read v2 payload: %w", err)
	}
	crc := crc32.Update(0, crcTable, hdr[:16])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.BigEndian.Uint32(hdr[16:20]) {
		frameBufs.put(payload)
		return frame2{}, fmt.Errorf("%w: v2 frame CRC mismatch", ErrBadFrame)
	}
	return frame2{
		Type:    typ,
		Flags:   binary.BigEndian.Uint16(hdr[2:4]),
		Stream:  binary.BigEndian.Uint64(hdr[4:12]),
		Payload: payload,
	}, nil
}

// ---- control payload encoding ----
//
// Control payloads use a hand-rolled big-endian binary layout:
// fixed-width integers, uint16-length-prefixed strings. Decoders are
// defensive (every read bounds-checked) because the fuzz targets feed
// them arbitrary bytes.

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = appendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// binReader walks a control payload with sticky bounds checking.
type binReader struct {
	b   []byte
	off int
	bad bool
}

func (r *binReader) u16() uint16 {
	if r.bad || r.off+2 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *binReader) u32() uint32 {
	if r.bad || r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.bad || r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *binReader) str() string {
	n := int(r.u16())
	if r.bad || r.off+n > len(r.b) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *binReader) byte() byte {
	if r.bad || r.off+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// done reports a clean parse: no bounds violation and no trailing
// bytes.
func (r *binReader) done() bool { return !r.bad && r.off == len(r.b) }

// chainEntry names one downstream pipeline hop.
type chainEntry struct {
	Node cluster.NodeID
	Addr string
}

// openWrite is the pipeline write setup: the block, its total size
// (so receivers can size their assembly buffer once), the caller's
// deadline budget, the sender's endpoint name for the fault hook, and
// the remaining downstream chain.
type openWrite struct {
	Block      dfs.BlockID
	Size       int64
	DeadlineMS int64
	From       string
	Chain      []chainEntry
}

// maxChainLen bounds a decoded pipeline chain; real chains are the
// replication degree (single digits), the bound just keeps hostile
// frames from forcing huge allocations.
const maxChainLen = 256

func encodeOpenWrite(ow openWrite) []byte {
	b := make([]byte, 0, 32+len(ow.From)+len(ow.Chain)*24)
	b = appendUint64(b, uint64(ow.Block))
	b = appendUint64(b, uint64(ow.Size))
	b = appendUint64(b, uint64(ow.DeadlineMS))
	b = appendString(b, ow.From)
	b = appendUint16(b, uint16(len(ow.Chain)))
	for _, ce := range ow.Chain {
		b = appendUint32(b, uint32(ce.Node))
		b = appendString(b, ce.Addr)
	}
	return b
}

func decodeOpenWrite(p []byte) (openWrite, error) {
	r := binReader{b: p}
	var ow openWrite
	ow.Block = dfs.BlockID(r.u64())
	ow.Size = int64(r.u64())
	ow.DeadlineMS = int64(r.u64())
	ow.From = r.str()
	n := int(r.u16())
	if n > maxChainLen {
		return openWrite{}, fmt.Errorf("%w: pipeline chain of %d", ErrBadFrame, n)
	}
	for i := 0; i < n && !r.bad; i++ {
		ce := chainEntry{Node: cluster.NodeID(r.u32())}
		ce.Addr = r.str()
		ow.Chain = append(ow.Chain, ce)
	}
	if !r.done() {
		return openWrite{}, fmt.Errorf("%w: malformed open-write payload", ErrBadFrame)
	}
	if ow.Size < 0 {
		return openWrite{}, fmt.Errorf("%w: negative block size in open-write", ErrBadFrame)
	}
	return ow, nil
}

// openRead is the streaming read setup.
type openRead struct {
	Block      dfs.BlockID
	DeadlineMS int64
	From       string
}

func encodeOpenRead(or openRead) []byte {
	b := make([]byte, 0, 20+len(or.From))
	b = appendUint64(b, uint64(or.Block))
	b = appendUint64(b, uint64(or.DeadlineMS))
	b = appendString(b, or.From)
	return b
}

func decodeOpenRead(p []byte) (openRead, error) {
	r := binReader{b: p}
	var or openRead
	or.Block = dfs.BlockID(r.u64())
	or.DeadlineMS = int64(r.u64())
	or.From = r.str()
	if !r.done() {
		return openRead{}, fmt.Errorf("%w: malformed open-read payload", ErrBadFrame)
	}
	return or, nil
}

// ackEntry is one node's status inside a setup or commit ack. OK means
// the node accepted (setup) or committed (commit); otherwise Code and
// Msg carry the error taxonomy across the wire exactly like the JSON
// envelope's code/error fields, and Transient the peer-side
// dfs.IsTransient classification.
type ackEntry struct {
	Node      cluster.NodeID
	OK        bool
	Transient bool
	Code      string
	Msg       string
}

// failed builds the ack entry for a node that failed with err.
func failedAck(node cluster.NodeID, err error) ackEntry {
	return ackEntry{
		Node:      node,
		Code:      codeFor(err),
		Msg:       err.Error(),
		Transient: dfs.IsTransient(err),
	}
}

// err rehydrates a non-OK entry as a RemoteError, so errors.Is against
// the dfs/svc sentinels and dfs.IsTransient behave exactly as for the
// JSON envelope. nil for OK entries.
func (a ackEntry) err() error {
	if a.OK {
		return nil
	}
	return &RemoteError{
		Code:     a.Code,
		Msg:      a.Msg,
		IsRetry:  a.Transient,
		sentinel: sentinelFor(a.Code),
	}
}

func encodeAcks(entries []ackEntry) []byte {
	n := 2
	for _, e := range entries {
		n += 9 + len(e.Code) + len(e.Msg)
	}
	b := make([]byte, 0, n)
	b = appendUint16(b, uint16(len(entries)))
	for _, e := range entries {
		b = appendUint32(b, uint32(e.Node))
		var flags byte
		if e.OK {
			flags |= 1
		}
		if e.Transient {
			flags |= 2
		}
		b = append(b, flags)
		b = appendString(b, e.Code)
		b = appendString(b, e.Msg)
	}
	return b
}

func decodeAcks(p []byte) ([]ackEntry, error) {
	r := binReader{b: p}
	n := int(r.u16())
	if n > maxChainLen {
		return nil, fmt.Errorf("%w: ack list of %d", ErrBadFrame, n)
	}
	entries := make([]ackEntry, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		var e ackEntry
		e.Node = cluster.NodeID(r.u32())
		flags := r.byte()
		e.OK = flags&1 != 0
		e.Transient = flags&2 != 0
		e.Code = r.str()
		e.Msg = r.str()
		entries = append(entries, e)
	}
	if !r.done() {
		return nil, fmt.Errorf("%w: malformed ack payload", ErrBadFrame)
	}
	return entries, nil
}

// encodeErrorFrame carries a failed read's taxonomy to the reader.
func encodeErrorFrame(err error) []byte {
	b := make([]byte, 0, 8+len(err.Error()))
	var flags byte
	if dfs.IsTransient(err) {
		flags |= 2
	}
	b = append(b, flags)
	b = appendString(b, codeFor(err))
	b = appendString(b, err.Error())
	return b
}

// decodeErrorFrame rehydrates an error frame's payload.
func decodeErrorFrame(p []byte) error {
	r := binReader{b: p}
	flags := r.byte()
	code := r.str()
	msg := r.str()
	if !r.done() {
		return fmt.Errorf("%w: malformed error payload", ErrBadFrame)
	}
	return &RemoteError{
		Code:     code,
		Msg:      msg,
		IsRetry:  flags&2 != 0,
		sentinel: sentinelFor(code),
	}
}

// encodeReadHdr announces a read stream's total byte count.
func encodeReadHdr(size int64) []byte {
	return appendUint64(nil, uint64(size))
}

func decodeReadHdr(p []byte) (int64, error) {
	r := binReader{b: p}
	size := int64(r.u64())
	if !r.done() || size < 0 {
		return 0, fmt.Errorf("%w: malformed read header", ErrBadFrame)
	}
	return size, nil
}
