package svc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// Client side of the wire (see wire.go): calls, pipeline writes and
// chunked reads, each one exchange on a connection. A connection
// carries successive exchanges, a call or a stream, one at a time. Its
// owner — a client's NameNode channel, each DataNode proxy of a client
// or of the NameNode, a DataNode's NameNode channel and relays — parks
// it after an exchange that ended cleanly and takes it again for its
// next exchange with the same address, so a small put does not pay a
// TCP dial and fresh buffers per hop. Every other ending closes it.
// Exchanges that overlap take a connection each.
//
// A call is the smallest exchange: its call frame out, one reply or
// error frame with its id back.
//
// A write costs one round trip through the chain a block: pipelinePut
// sends the open frame and the block's first chunk in one flush, and
// reads the setup ack only then (pipeline.go has the relay's half).
//
// A read lands where its bytes are going: streamGet reads each chunk
// straight into the caller's destination (the file being assembled, for
// dfs.BlockIO's read ladders, hedged or not), so a block crosses the
// reader's user space once. Every other frame — a header, an ack, an
// error, a reply — is a control message, read into a slice of its own
// that the caller keeps like any other value.

// faultGate consults the sender's side of the fault hook before a
// message leaves: a partition fails it, injected latency is slept
// (bounded by ctx). A nil hook passes everything.
func faultGate(ctx context.Context, faults TransportFaults, local, peer string) error {
	if faults == nil {
		return nil
	}
	if err := faults.FailMessage(local, peer); err != nil {
		return err
	}
	if d := faults.MessageDelay(local, peer); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// dial opens a TCP connection to addr. Its one caller, acquireConn, has
// consulted the fault hook first.
func dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	return nc, nil
}

// streamIDs mints the ids of calls and streams. Exchanges on a
// connection never overlap, so the id is diagnostic: it ties the frames
// of an exchange together in traces and guards against crossed frames.
var streamIDs atomic.Uint64

// maxIdleStreams caps the connections an owner parks per address. An
// owner's exchanges with one address overlap only as far as the owner's
// own concurrency does: a client moves one block at a time (a hedged
// read goes to another replica) and makes one call at a time, a relay
// carries as many streams as there are writers whose chains cross that
// hop at once. A few connections keep
// that dial-free; a burst wider than the cap closes its surplus as it
// ends rather than pinning it. The cap is also what bounds idleness,
// since nothing else retires a parked connection (no timer, no knob):
// each holds an 8 KiB reader and a 32 KiB writer at both ends plus the
// server's serving goroutine, so at most 4 × 80 KiB per owner and
// address.
const maxIdleStreams = 4

// streamReadBuf sizes the read buffer of a connection, at both ends. Chunk payloads are read straight into the buffer they belong in
// (readFrame2's destination), so this one only holds headers and small
// frames: a larger one would drag up to its size of payload through an
// extra user-space copy behind every header it reads.
const streamReadBuf = 8 << 10

// dataConn is one connection: buffered both ways so a 20-byte
// header and its payload leave in one syscall, the buffers living as
// long as the connection.
type dataConn struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	stop func() bool // detaches the current exchange's context watcher
}

// connPast is the deadline used to abort an exchange's blocked I/O when
// its context is cancelled: any instant in the past works.
var connPast = time.Unix(1, 0)

// arm binds the connection to one exchange: its deadline becomes the
// connection deadline (none clears it), and cancellation aborts blocked
// reads and writes mid-exchange.
func (c *dataConn) arm(ctx context.Context) {
	dl, _ := ctx.Deadline() // the zero time when ctx has none
	_ = c.nc.SetDeadline(dl)
	c.stop = context.AfterFunc(ctx, func() { _ = c.nc.SetDeadline(connPast) })
}

func (c *dataConn) close() {
	c.stop()
	_ = c.nc.Close()
}

// exchange sends what send writes in one flush and reads the reply.
func (c *dataConn) exchange(send func(w io.Writer) error) (frame2, error) {
	if err := send(c.bw); err != nil {
		return frame2{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return frame2{}, fmt.Errorf("svc: send frame: %w", err)
	}
	return readFrame2(c.br, nil)
}

// streamPool is one owner's way to its peers: the owner's endpoint name
// and fault hook, and its parked connections, by address. It starts
// with nothing parked.
type streamPool struct {
	local  string          // the owner's endpoint name, sent in every call and open frame
	faults TransportFaults // consulted before each exchange; nil passes everything

	mu   sync.Mutex
	idle map[string][]*dataConn
}

// take pops the most recently parked connection to addr, nil if none.
func (p *streamPool) take(addr string) *dataConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	dc := conns[len(conns)-1]
	conns[len(conns)-1] = nil
	p.idle[addr] = conns[:len(conns)-1]
	return dc
}

// park ends an exchange on dc. A clean end — the exchange's last frame
// read, its context watcher stopped before it fired, nothing unread, the
// deadline cleared — parks the connection for the owner's next exchange
// with addr, up to maxIdleStreams; anything else closes it.
func (p *streamPool) park(addr string, dc *dataConn, clean bool) {
	if !dc.stop() || !clean || dc.br.Buffered() > 0 || dc.nc.SetDeadline(time.Time{}) != nil {
		_ = dc.nc.Close()
		return
	}
	p.mu.Lock()
	if len(p.idle[addr]) < maxIdleStreams {
		if p.idle == nil {
			p.idle = make(map[string][]*dataConn)
		}
		p.idle[addr] = append(p.idle[addr], dc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	_ = dc.nc.Close()
}

// drop closes the connections parked to addr.
func (p *streamPool) drop(addr string) {
	p.mu.Lock()
	conns := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, dc := range conns {
		_ = dc.nc.Close()
	}
}

// close closes every parked connection. The owner calls it once its
// own exchanges are over; the pool stays usable.
func (p *streamPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, conns := range idle {
		for _, dc := range conns {
			_ = dc.nc.Close()
		}
	}
}

// errNotStarted marks an exchange refused before anything was sent or
// dialed because its context was already done: it says nothing about
// the peer.
var errNotStarted = errors.New("svc: exchange not started")

// acquireConn takes a connection to addr for one exchange with peer — a
// parked one when the owner has any, a fresh dial otherwise — and arms
// it on ctx. reused reports a parked connection. The sender side of the
// fault hook runs first, once per exchange, wherever the connection
// comes from, so a partitioned endpoint cannot even dial, and injected
// latency is paid once per exchange; a redial, whose gate has passed,
// skips it. The gate and any dial run under a setup budget: a quarter of
// ctx's remaining deadline. Setup is where a gray peer (alive
// heartbeats, crawling service) stalls, and without the sub-budget one
// gray hop silently eats the caller's whole deadline: the op times out,
// the failure gets blamed on whatever node the caller reached for, and
// no budget is left to fail over. Bounding setup keeps a gray hop's cost
// to a slice of the budget, leaves the rest for alternates, and — for
// pipeline relays — lets the setup ack naming the actual stalled node
// reach the writer in time. Deadline-free contexts set up without a
// sub-budget, and so does an exchange with neither a gate nor a dial (a
// parked connection, no fault hook): nothing in it can stall. A context
// already done is refused with errNotStarted before the gate or a dial.
func (p *streamPool) acquireConn(ctx context.Context, addr, peer string, redial bool) (dc *dataConn, reused bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("%w: dial %s: %w", errNotStarted, addr, err)
	}
	gated := !redial && p.faults != nil
	if !gated {
		if dc = p.take(addr); dc != nil {
			dc.arm(ctx)
			return dc, true, nil
		}
	}
	setup := ctx
	if dl, ok := ctx.Deadline(); ok {
		//lint:ignore determinism carving a setup slice out of a wall-clock deadline needs the wall clock; deadline-free contexts skip it
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, false, fmt.Errorf("%w: dial %s: %w", errNotStarted, addr, context.DeadlineExceeded)
		}
		var cancel context.CancelFunc
		setup, cancel = context.WithTimeout(ctx, rem/4)
		defer cancel()
	}
	if gated {
		if err := faultGate(setup, p.faults, p.local, peer); err != nil {
			return nil, false, fmt.Errorf("svc: dial %s: %w", addr, err)
		}
		dc = p.take(addr)
	}
	reused = dc != nil
	if !reused {
		nc, err := dial(setup, addr)
		if err != nil {
			return nil, false, err
		}
		dc = &dataConn{nc: nc, br: bufio.NewReaderSize(nc, streamReadBuf), bw: bufio.NewWriterSize(nc, 32<<10)}
	}
	dc.arm(ctx)
	return dc, reused, nil
}

// openStream starts one exchange: a connection from acquireConn, the
// frames send writes — the call or open frame, built at send time so
// the budget it carries is current, and for a write the block's first
// chunk — flushed together, and the first reply. A parked connection
// whose peer closed it while it sat idle (a server that restarted or
// dropped its connections) fails with EOF or a reset before any reply:
// nothing was answered on it, so the exchange closes the owner's other
// connections parked to addr alongside it and redials once, the fault
// gate already passed. That failure says nothing about the peer and
// never reaches the caller, its breaker or its liveness belief. A
// timeout is not retried: a stalled peer is evidence. The redial sends
// the frames again, so a call may reach its handler twice (DESIGN §10
// lists what each method does with a repeat).
func (p *streamPool) openStream(ctx context.Context, addr, peer string, send func(w io.Writer) error) (*dataConn, frame2, error) {
	for redialed := false; ; redialed = true {
		dc, reused, err := p.acquireConn(ctx, addr, peer, redialed)
		if err != nil {
			return nil, frame2{}, err
		}
		f, err := dc.exchange(send)
		if err == nil {
			return dc, f, nil
		}
		dc.close()
		if redialed || !reused || !peerClosed(err) {
			return nil, frame2{}, err
		}
		p.drop(addr)
	}
}

// call performs one RPC with peer at addr as one exchange: the call
// header, with the deadline budget from ctx, and then params' layout
// (none when params is nil) go out in one frame, and the one reply,
// whose id must be the call's, is read into result (ignored when result
// is nil). The connection is then parked or closed exactly as after a
// stream; a call cancelled or timed out mid-exchange closes it. Errors
// from the peer are rehydrated as RemoteError.
func (p *streamPool) call(ctx context.Context, addr, peer, method string, params wireValue, result valueReader) error {
	id := streamIDs.Add(1)
	dc, f, err := p.openStream(ctx, addr, peer, func(w io.Writer) error {
		b := callHeader{DeadlineMS: budgetOf(ctx), From: p.local, Method: method}.appendWire(payloadBuf())
		if params != nil {
			b = params.appendWire(b)
		}
		return writeFrame2(w, frameCall, 0, id, b)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return fmt.Errorf("svc: call %s: %w", method, err)
	}
	answered := f.Stream == id && (f.Type == frameReply || f.Type == frameError)
	p.park(addr, dc, answered)
	if !answered {
		return fmt.Errorf("%w: call %s: frame type %d, id %d answers call %d", ErrBadFrame, method, f.Type, f.Stream, id)
	}
	if f.Type == frameError {
		return fmt.Errorf("svc: call %s: %w", method, decodeErrorFrame(f.Payload))
	}
	if result != nil && !decodeValue(f.Payload, result) {
		return fmt.Errorf("%w: call %s result: malformed %T", ErrBadFrame, method, result)
	}
	return nil
}

// peerClosed reports whether err is the peer having closed the
// connection before sending anything: EOF at a frame boundary, a reset,
// a broken pipe.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// pipelinePut streams one block through the replication chain
// (chain[0] is this owner's peer; the rest ride in the open frame for
// the relays) and returns the commit-phase ack entries, one per chain
// node, in chain order, and the block's CRC32C: each chunk is summed
// once, the sum framing the chunk and folding into the block's. The
// block costs one round trip through the chain: the open frame and the
// first chunk leave in one flush, each relay checks that chunk and
// sends it on with its own open, and the setup acks come back as the
// deepest node has the chunk. Any further
// chunks follow the setup ack, and for a block of one chunk the setup
// and commit acks arrive together. A nil error means the commit acks
// arrived — individual nodes may still report failure in their
// entries. A non-nil error means the stream broke and the commit
// outcome of every chain node is unknown: the caller must treat all of
// them as unacked and clean up best-effort.
func (p *streamPool) pipelinePut(ctx context.Context, chain []chainEntry, id dfs.BlockID, data []byte) ([]ackEntry, uint32, error) {
	addr, peer := chain[0].Addr, endpointName(chain[0].Node)
	sid := streamIDs.Add(1)
	// sendChunk writes the chunk at off and returns the offset past it,
	// folding the chunk's sum into the block's. A redial sends chunk 0
	// again, and the block sum starts over with it. A partition formed
	// mid-stream severs the remaining chunks.
	var sum uint32
	sendChunk := func(w io.Writer, off int) (int, error) {
		if p.faults != nil {
			if err := p.faults.FailMessage(p.local, peer); err != nil {
				return off, err
			}
		}
		n := min(len(data)-off, dfs.ChunkSize)
		var flags uint16
		if off+n == len(data) {
			flags = flagLast
		}
		chunk := data[off : off+n]
		cs := dfs.Checksum(chunk)
		if off == 0 {
			sum = cs
		} else {
			sum = dfs.CombineChecksum(sum, cs, int64(n))
		}
		return off + n, writeSummed(w, frameChunk, flags, sid, chunk, cs)
	}
	off := 0
	dc, sf, err := p.openStream(ctx, addr, peer, func(w io.Writer) (err error) {
		if err := writeFrame2(w, frameOpenWrite, 0, sid, openWrite{Block: id, Size: int64(len(data)), DeadlineMS: budgetOf(ctx), From: p.local, Chain: chain[1:]}.appendWire(payloadBuf())); err != nil {
			return err
		}
		off, err = sendChunk(w, 0)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("svc: pipeline put block %d: setup: %w", id, err)
	}
	clean := false
	defer func() { p.park(addr, dc, clean) }()
	if sf.Type != frameSetupAck || sf.Stream != sid {
		return nil, 0, fmt.Errorf("%w: pipeline put block %d: unexpected setup frame type %d", ErrBadFrame, id, sf.Type)
	}
	var setup ackList
	if !decodeValue(sf.Payload, &setup) {
		return nil, 0, fmt.Errorf("%w: pipeline put block %d: malformed setup ack", ErrBadFrame, id)
	}
	if !anyOK(setup) {
		// Early abort: nobody admitted the stream, so nothing past the
		// first chunk is sent — the setup entries are the final
		// outcome, and the stream ends here, uncleanly.
		return setup, sum, nil
	}

	for off < len(data) {
		if off, err = sendChunk(dc.bw, off); err != nil {
			return nil, 0, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
		}
	}
	if err := dc.bw.Flush(); err != nil { // a no-op when the first chunk was the block
		return nil, 0, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}

	cf, err := readFrame2(dc.br, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("svc: pipeline put block %d: commit: %w", id, err)
	}
	if cf.Type != frameCommitAck || cf.Stream != sid {
		return nil, 0, fmt.Errorf("%w: pipeline put block %d: unexpected commit frame type %d", ErrBadFrame, id, cf.Type)
	}
	var acks ackList
	if !decodeValue(cf.Payload, &acks) {
		return nil, 0, fmt.Errorf("%w: pipeline put block %d: malformed commit ack", ErrBadFrame, id)
	}
	clean = true
	return acks, sum, nil
}

// streamGet reads one block over a v2 stream and appends it to dst,
// returning the extended slice and the block's CRC32C: open, a header
// announcing the total size, then chunks, each read straight into its
// place in dst's spare capacity — grown once when it is short — so the
// block crosses user space once, and checked there, the check yielding
// the chunk's sum to fold into the block's. A chunk that fails its
// check is dfs.ErrChecksum. A server-side failure arrives as an error
// frame whose taxonomy survives rehydration (errors.Is, IsTransient).
func (p *streamPool) streamGet(ctx context.Context, addr, peer string, id dfs.BlockID, dst []byte) (dfs.GetResult, error) {
	sid := streamIDs.Add(1)
	dc, hf, err := p.openStream(ctx, addr, peer, func(w io.Writer) error {
		return writeFrame2(w, frameOpenRead, 0, sid, openRead{Block: id, DeadlineMS: budgetOf(ctx), From: p.local}.appendWire(payloadBuf()))
	})
	if err != nil {
		return dfs.GetResult{}, fmt.Errorf("svc: stream get block %d: %w", id, err)
	}
	clean := false
	defer func() { p.park(addr, dc, clean) }()
	if hf.Type == frameError {
		rerr := decodeErrorFrame(hf.Payload)
		return dfs.GetResult{}, fmt.Errorf("svc: stream get block %d: %w", id, rerr)
	}
	if hf.Type != frameReadHdr || hf.Stream != sid {
		return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d: unexpected frame type %d", ErrBadFrame, id, hf.Type)
	}
	var hdr readHdr
	if !decodeValue(hf.Payload, &hdr) {
		return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d: malformed read header", ErrBadFrame, id)
	}
	size := hdr.Size
	if size > MaxBlockBytes {
		return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d announces %d bytes", ErrFrameTooLarge, id, size)
	}

	out := slices.Grow(dst, int(size))
	block := out[len(dst) : len(dst)+int(size)]
	got := 0
	var sum uint32
	for {
		cf, err := readFrame2(dc.br, block[got:])
		if errors.Is(err, errChunkCRC) {
			// The replica's bytes are bad, not the node's wire.
			return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d from %s: %v", dfs.ErrChecksum, id, peer, err)
		}
		if err != nil {
			return dfs.GetResult{}, fmt.Errorf("svc: stream get block %d: %w", id, err)
		}
		if cf.Type == frameError {
			rerr := decodeErrorFrame(cf.Payload)
			return dfs.GetResult{}, fmt.Errorf("svc: stream get block %d: %w", id, rerr)
		}
		if cf.Type != frameChunk || cf.Stream != sid {
			return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d: unexpected frame type %d", ErrBadFrame, id, cf.Type)
		}
		// A chunk that fits was read into block; one that does not was
		// read into a slice of its own instead, and overflows the
		// announced size.
		n := len(cf.Payload)
		sum = dfs.CombineChecksum(sum, cf.sum, int64(n))
		if n > len(block)-got {
			return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d overflows announced size %d", ErrBadFrame, id, size)
		}
		got += n
		if cf.last() {
			break
		}
	}
	if got != len(block) {
		return dfs.GetResult{}, fmt.Errorf("%w: stream get block %d: got %d of %d bytes", ErrBadFrame, id, got, size)
	}
	clean = true
	return dfs.GetResult{Data: out[:len(dst)+got], Sum: sum}, nil
}
