package svc

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
)

// The wire protocol. Every connection between two endpoints of this
// module carries one kind of frame, and every connection is of one
// kind: it carries successive exchanges, a call or a stream, one at a
// time (stream.go, pipeline.go, Server.serve). The frame at an exchange
// boundary says which: a frameCall is a call, answered by one frameReply
// or frameError with its id; a frameOpenWrite or frameOpenRead opens a
// block stream. After an exchange that ends cleanly the connection
// waits for the next; one that ends any other way ends the connection.
//
// Frame layout (big-endian), 20-byte header:
//
//	offset 0      version byte (0x05)
//	offset 1      frame type
//	offset 2-3    flags (bit 0: last chunk of the stream)
//	offset 4-11   stream id (a call's id for a call)
//	offset 12-15  payload length
//	offset 16-19  CRC32C over payload + header[0:16]
//
// The CRC covers the header prefix too, so a flipped type, flag, or
// length is caught, not just payload corruption. The payload comes
// first so that the CRC extends the payload's own CRC32C — the sum
// dfs keeps per chunk and folds into a block's (dfs.CombineChecksum) —
// by 16 bytes: a writer that knows a chunk's sum frames it without
// touching its bytes again, and a receiver's one pass over the payload
// both checks the frame and yields the chunk's sum.
//
// Each block byte is summed once per endpoint. The writing client sums
// each chunk as it sends it and folds those sums into the block's; a
// relay forwards a chunk with the header — CRC included — it arrived
// with, after checking it; each DataNode keeps the sums of the chunks
// it received beside the replica and serves the replica on those
// boundaries under those sums; and the reader's check of each frame
// yields the sums it folds into the block sum it compares with the
// metadata. So every hop verifies every frame, the check runs end to
// end from the writer, and a replica that rotted in store fails its
// frame check at the reader. There, on a read stream, a chunk whose CRC
// fails is dfs.ErrChecksum: the reader fails over to another replica
// exactly as for a block-sum mismatch. Everywhere else it is
// ErrBadFrame, as is header garbage.
//
// Block bytes cross user space once per hop. readFrame2 reads a chunk
// straight into the destination its caller hands it — the replica
// buffer on a DataNode, the file being assembled at a reader. Every
// other frame is a control message of tens of bytes, read into a slice
// of its own that the receiver keeps like any other value.
//
//	type           sent by          payload                                bound
//	openWrite   1  writer -> DN     block, size, budget, from, chain       MaxChunkPayload
//	openRead    2  reader -> DN     block, budget, from                    MaxChunkPayload
//	chunk       3  either           raw block bytes                        MaxChunkPayload
//	setupAck    4  DN -> upstream   per-node admission (ack list)          MaxChunkPayload
//	commitAck   5  DN -> upstream   per-node commit status (ack list)      MaxChunkPayload
//	error       6  server -> client transient flag, wire code, message     MaxChunkPayload
//	readHdr     7  DN -> reader     total size of the coming stream        MaxChunkPayload
//	call        8  client -> server budget, from, method, then the params  MaxControlFrame
//	reply       9  server -> client the result                             MaxControlFrame
//
// A failed call is answered with the same error frame a failed read is.
// Every payload but a chunk's is one value in one binary layout
// (values.go), bounds-checked and fuzzed: what the transport itself
// reads — the call header, the stream opens, the ack lists, the error,
// the read header, all below — and a call's params and a reply's
// result, each the method's own value. The version byte changes with
// any of these layouts, so a peer built with other ones is refused at
// the header instead of having its payloads misread.
const (
	frameVersion = 0x05
	headerSize   = 20

	// MaxChunkPayload bounds the payload of every frame but a call and
	// its reply. Blocks larger than this cross the wire as multiple
	// chunks.
	MaxChunkPayload = 4 << 20

	// MaxControlFrame bounds a call's or a reply's payload. Neither
	// carries file or block bytes, so the bound is sized for metadata.
	// The largest legitimate ones are a many-block FileMeta (nn.stat
	// and nn.locate replies, the nn.complete call), nn.list and
	// dn.blocks. One BlockMeta of three replicas encodes to 60 bytes
	// plus the file name it repeats, so 16 MiB holds a 65,536-block
	// file (dfs.MaxFileBlocks, which nn.allocate enforces) with names
	// of 140 bytes — 4 TiB at the default 64 MB block — and, at 4 bytes
	// plus a name of about 60 and 8 a block id, a listing of 250,000
	// files or an inventory of a million blocks.
	MaxControlFrame = 16 << 20

	// MaxBlockBytes bounds one block on a stream: twice the 64 MB HDFS
	// default block.
	MaxBlockBytes = 128 << 20
)

// Frame types.
const (
	frameOpenWrite uint8 = iota + 1
	frameOpenRead
	frameChunk
	frameSetupAck
	frameCommitAck
	frameError
	frameReadHdr
	frameCall
	frameReply
)

// flagLast marks the final chunk of a stream.
const flagLast uint16 = 1 << 0

// maxPayload is the payload bound of a frame type.
func maxPayload(typ uint8) int {
	if typ == frameCall || typ == frameReply {
		return MaxControlFrame
	}
	return MaxChunkPayload
}

// TransportFaults is the hook through which a chaos engine perturbs
// the wire layer. The sending side (per call, per dial, per chunk) and
// the serving side (per received call, per stream open) consult it;
// chaos.NetFaults implements it. Implementations must be safe for
// concurrent use.
type TransportFaults interface {
	// FailMessage may return a non-nil error to sever the message
	// between the named endpoints; the transport fails the call and
	// drops the connection, emulating a partition or message loss.
	FailMessage(from, to string) error
	// MessageDelay returns injected latency imposed before the
	// message is sent.
	MessageDelay(from, to string) time.Duration
}

// frame2 is one decoded frame. A chunk read into the caller's
// destination aliases it; any other payload is the receiver's own.
type frame2 struct {
	Type    uint8
	Flags   uint16
	Stream  uint64
	Payload []byte

	crc uint32 // the checksum the frame carries, computed by its writer
	sum uint32 // the CRC32C of Payload, which crc extends
}

// last reports whether the frame closes its stream.
func (f *frame2) last() bool { return f.Flags&flagLast != 0 }

// header encodes the frame's header with the checksum it carries.
func (f *frame2) header() (hdr [headerSize]byte) {
	hdr[0] = frameVersion
	hdr[1] = f.Type
	binary.BigEndian.PutUint16(hdr[2:4], f.Flags)
	binary.BigEndian.PutUint64(hdr[4:12], f.Stream)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	binary.BigEndian.PutUint32(hdr[16:20], f.crc)
	return hdr
}

// frameCRC is a frame's checksum: the CRC32C of its payload, given as
// sum, extended over the header prefix.
func frameCRC(sum uint32, prefix []byte) uint32 {
	return dfs.ExtendChecksum(sum, prefix)
}

// writeFrame2 writes one frame. The payload is written as-is
// (zero-copy); callers keep ownership and serialize access to w.
func writeFrame2(w io.Writer, typ uint8, flags uint16, stream uint64, payload []byte) error {
	return writeSummed(w, typ, flags, stream, payload, dfs.Checksum(payload))
}

// writeSummed is writeFrame2 for a payload whose CRC32C, sum, the
// caller already knows: the payload is not read again.
func writeSummed(w io.Writer, typ uint8, flags uint16, stream uint64, payload []byte, sum uint32) error {
	if len(payload) > maxPayload(typ) {
		return fmt.Errorf("%w: type %d payload %d bytes", ErrFrameTooLarge, typ, len(payload))
	}
	f := frame2{Type: typ, Flags: flags, Stream: stream, Payload: payload}
	hdr := f.header()
	f.crc = frameCRC(sum, hdr[:16])
	return forwardFrame(w, &f)
}

// forwardFrame writes f as it is: the header rebuilt from its fields
// and the checksum it carries. For a frame readFrame2 returned, that is
// byte for byte the frame that arrived, so a relay passes a verified
// chunk on without checksumming it again.
func forwardFrame(w io.Writer, f *frame2) error {
	hdr := f.header()
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("svc: write frame header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("svc: write frame payload: %w", err)
		}
	}
	return nil
}

// errChunkCRC is a chunk frame whose CRC failed: its bytes, or its
// header, changed after its writer summed them.
var errChunkCRC = fmt.Errorf("%w: chunk CRC mismatch", ErrBadFrame)

// readFrame2 reads one frame, the only function that takes a header
// off a socket. A payload length beyond the type's bound is refused
// before anything is allocated for it. A chunk whose payload fits dst is
// read straight into dst's first bytes — never past len(dst) — and its
// Payload aliases them; every other frame's payload is a fresh slice the
// caller owns. Either way the CRC is checked where the bytes landed, and
// the frame's sum is its payload's CRC32C. A frame that fails the check
// is ErrBadFrame, and a chunk errChunkCRC too. On any error dst may hold
// a torn prefix of the refused chunk.
func readFrame2(r io.Reader, dst []byte) (frame2, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame2{}, fmt.Errorf("svc: read frame header: %w", err)
	}
	if hdr[0] != frameVersion {
		return frame2{}, fmt.Errorf("%w: version byte %#x", ErrBadFrame, hdr[0])
	}
	typ := hdr[1]
	if typ == 0 || typ > frameReply {
		return frame2{}, fmt.Errorf("%w: frame type %d", ErrBadFrame, typ)
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > uint32(maxPayload(typ)) {
		return frame2{}, fmt.Errorf("%w: type %d payload %d bytes", ErrFrameTooLarge, typ, n)
	}
	f := frame2{
		Type:   typ,
		Flags:  binary.BigEndian.Uint16(hdr[2:4]),
		Stream: binary.BigEndian.Uint64(hdr[4:12]),
		crc:    binary.BigEndian.Uint32(hdr[16:20]),
	}
	if typ == frameChunk && int(n) <= len(dst) {
		f.Payload = dst[:n:n]
	} else {
		f.Payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return frame2{}, fmt.Errorf("svc: read frame payload: %w", err)
	}
	f.sum = dfs.Checksum(f.Payload)
	if frameCRC(f.sum, hdr[:16]) != f.crc {
		if typ == frameChunk {
			return frame2{}, errChunkCRC
		}
		return frame2{}, fmt.Errorf("%w: frame CRC mismatch", ErrBadFrame)
	}
	return f, nil
}

// ---- transport payloads ----
//
// Every payload but a chunk's is a wireValue in values.go's layout: the
// transport's own below, a call's params and a reply's result. Each is
// decoded by decodeValue's rules, so a payload that is not exactly one
// well-formed value — short, with trailing bytes, a bool byte above 1,
// a string not UTF-8 — is ErrBadFrame, wherever it arrives.

// payloadBuf is the buffer a control payload is appended to: room for
// a transport payload without growing, unless it carries error text.
func payloadBuf() []byte { return make([]byte, 0, 128) }

// callHeader is what a call frame says before the method's params: the
// caller's deadline budget, its endpoint name for the fault hook, and
// the method.
type callHeader struct {
	DeadlineMS int64
	From       string
	Method     string
}

func (h callHeader) appendWire(b []byte) []byte {
	return appendText(appendText(appendInt(b, h.DeadlineMS), h.From), h.Method)
}
func (h *callHeader) readWire(r *binReader) {
	h.DeadlineMS, h.From, h.Method = r.i64(), r.text(), r.text()
}

// decodeCall splits a call frame's payload into its header and the
// params, which alias p: the one payload that is a value and then more.
func decodeCall(p []byte) (callHeader, []byte, error) {
	r := binReader{b: p}
	var h callHeader
	if h.readWire(&r); r.bad {
		return callHeader{}, nil, fmt.Errorf("%w: malformed call header", ErrBadFrame)
	}
	return h, p[r.off:], nil
}

// chainEntry names one downstream pipeline hop.
type chainEntry struct {
	Node cluster.NodeID
	Addr string
}

// openWrite is the pipeline write setup: the block, its total size
// (so receivers allocate the replica once, at its size), the caller's
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

func (ow openWrite) appendWire(b []byte) []byte {
	b = appendText(appendInt(appendInt(appendBlockID(b, ow.Block), ow.Size), ow.DeadlineMS), ow.From)
	return appendList(b, ow.Chain, func(b []byte, ce chainEntry) []byte { return appendText(appendNode(b, ce.Node), ce.Addr) })
}

// readWire refuses a negative size and a chain longer than maxChainLen.
func (ow *openWrite) readWire(r *binReader) {
	ow.Block, ow.Size, ow.DeadlineMS, ow.From = r.blockID(), r.i64(), r.i64(), r.text()
	ow.Chain = readList(r, 8+4, func() chainEntry { return chainEntry{Node: r.node(), Addr: r.text()} })
	if ow.Size < 0 || len(ow.Chain) > maxChainLen {
		r.bad = true
	}
}

// openRead is the streaming read setup.
type openRead struct {
	Block      dfs.BlockID
	DeadlineMS int64
	From       string
}

func (or openRead) appendWire(b []byte) []byte {
	return appendText(appendInt(appendBlockID(b, or.Block), or.DeadlineMS), or.From)
}
func (or *openRead) readWire(r *binReader) {
	or.Block, or.DeadlineMS, or.From = r.blockID(), r.i64(), r.text()
}

// readHdr opens a read stream's reply: the total byte count of the
// chunks that follow. A negative one is malformed.
type readHdr struct{ Size int64 }

func (h readHdr) appendWire(b []byte) []byte { return appendInt(b, h.Size) }
func (h *readHdr) readWire(r *binReader) {
	if h.Size = r.i64(); h.Size < 0 {
		r.bad = true
	}
}

// failure is an error as it crosses the wire: Code and Msg carry the
// error taxonomy, and Transient the peer-side dfs.IsTransient
// classification. It is the whole of an error frame, and the rest of
// the ackEntry of a node that did not accept or commit.
type failure struct {
	Transient bool
	Code      string
	Msg       string
}

func (f failure) appendWire(b []byte) []byte {
	return appendText(appendText(appendBool(b, f.Transient), f.Code), f.Msg)
}
func (f *failure) readWire(r *binReader) { f.Transient, f.Code, f.Msg = r.flag(), r.text(), r.text() }

// err rehydrates f as a RemoteError, so errors.Is against the dfs/svc
// sentinels and dfs.IsTransient behave as they do in process.
func (f failure) err() error {
	return &RemoteError{
		Code:     f.Code,
		Msg:      f.Msg,
		IsRetry:  f.Transient,
		sentinel: sentinelFor(f.Code),
	}
}

// decodeErrorFrame rehydrates an error frame's payload; a malformed one
// is ErrBadFrame.
func decodeErrorFrame(p []byte) error {
	var f failure
	if !decodeValue(p, &f) {
		return fmt.Errorf("%w: malformed error payload", ErrBadFrame)
	}
	return f.err()
}

// ackEntry is one node's status inside a setup or commit ack. OK means
// the node accepted (setup) or committed (commit); otherwise its
// failure says why.
type ackEntry struct {
	Node cluster.NodeID
	OK   bool
	failure
}

// maxErrorText bounds the message of a failure, in bytes.
const maxErrorText = 0xffff

// failedAck builds the entry for a node that failed with err: the first
// matching wire code, the printable message, and the transient
// classification. It is the one place an error is given its wire form
// (an error frame is failedAck(0, err).failure): the message's invalid
// UTF-8 is replaced, since the layout carries only UTF-8, and a message
// over maxErrorText bytes is cut on a rune boundary.
func failedAck(node cluster.NodeID, err error) ackEntry {
	//lint:ignore errtaxonomy the text is made fit to carry, not matched: the code classifies it
	msg := strings.ToValidUTF8(err.Error(), string(utf8.RuneError))
	if len(msg) > maxErrorText {
		cut := maxErrorText
		for !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut]
	}
	return ackEntry{Node: node, failure: failure{Transient: dfs.IsTransient(err), Code: codeFor(err), Msg: msg}}
}

// err is the entry's failure rehydrated, or nil for an OK entry.
func (a ackEntry) err() error {
	if a.OK {
		return nil
	}
	return a.failure.err()
}

// ackList is a setup or commit ack: an entry for the node that sends
// it and for each node of its chain that answered, so at most
// maxChainLen+1.
type ackList []ackEntry

func (l ackList) appendWire(b []byte) []byte {
	return appendList(b, l, func(b []byte, e ackEntry) []byte {
		return e.failure.appendWire(appendBool(appendNode(b, e.Node), e.OK))
	})
}
func (l *ackList) readWire(r *binReader) {
	*l = readList(r, 8+1+1+4+4, func() ackEntry {
		e := ackEntry{Node: r.node(), OK: r.flag()}
		e.failure.readWire(r)
		return e
	})
	if len(*l) > maxChainLen+1 {
		r.bad = true
	}
}

// ---- deadline budgets ----

// deadlineBudget converts a context deadline into the wire's
// remaining-milliseconds form (0 = none). now is time.Now at call
// time.
func deadlineBudget(ctx context.Context, now time.Time) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := dl.Sub(now).Milliseconds()
	if ms < 1 {
		return 1 // expired or sub-millisecond: force an immediate server-side timeout
	}
	return ms
}

// budgetOf is what is left of ctx's deadline now, in the wire's form:
// the value every call and stream-open frame carries.
func budgetOf(ctx context.Context) int64 {
	//lint:ignore determinism encoding the ctx deadline as a wire budget needs the wall clock; simulations drive the transport with deadline-free contexts
	return deadlineBudget(ctx, time.Now())
}

// maxBudget clamps a peer-supplied deadline budget. Nothing legitimate
// runs for a day, and milliseconds beyond about 9.2e12 overflow a
// time.Duration into a deadline that has already passed.
const maxBudget = 24 * time.Hour

// budgetCtx derives a handler's context from the budget a call or
// stream-open frame carried (0 = no deadline), so deadlines propagate
// end to end. A budget that is out of range, or negative once read as
// signed, is clamped to maxBudget.
func budgetCtx(parent context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms == 0 {
		return parent, func() {}
	}
	d := maxBudget
	if ms > 0 && ms < maxBudget.Milliseconds() {
		d = time.Duration(ms) * time.Millisecond
	}
	return context.WithTimeout(parent, d)
}
