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

// Client side of the block streams (see wire.go): pipeline writes and
// chunked reads on stream connections. A stream connection carries
// successive streams, one at a time. Its owner — a client's or the
// NameNode's DataNode fleet, a DataNode's relays — parks it after a
// stream that ended cleanly and takes it again for its next stream to
// the same address, so a small put does not pay a TCP dial and fresh
// buffers per hop. Every other ending closes it. Multiplexing is for
// call connections (conn.go), where frames are small.
//
// A read lands where its bytes are going: streamGet reads each chunk
// straight into the caller's destination (the file being assembled, for
// dfs.BlockIO's read ladder), so a block crosses the reader's user space
// once; the connection's small read buffer holds only headers and the
// frames that have nowhere else to go.

// streamIDs mints stream ids. Streams on a connection never overlap, so
// the id is diagnostic: it ties the frames of a stream together in
// traces and guards against crossed frames.
var streamIDs atomic.Uint64

// maxIdleStreams caps the connections an owner parks per DataNode
// address. An owner's streams to one address overlap only as far as the
// owner's own concurrency does: a client moves one block at a time (a
// hedged read goes to another replica), a relay as many as there are
// writers whose chains cross that hop at once. A few connections keep
// that dial-free; a burst wider than the cap closes its surplus as it
// ends rather than pinning it. The cap is also what bounds idleness,
// since nothing else retires a parked connection (no timer, no knob):
// each holds an 8 KiB reader and a 32 KiB writer at both ends plus the
// DataNode's serving goroutine, so at most 4 × 80 KiB per owner and
// address.
const maxIdleStreams = 4

// streamReadBuf sizes the read buffer of a stream connection, at both
// ends. Chunk payloads are read straight into the buffer they belong in
// (readFrame2's destination), so this one only holds headers and small
// frames: a larger one would drag up to its size of payload through an
// extra user-space copy behind every header it reads.
const streamReadBuf = 8 << 10

// dataConn is one v2 stream connection: buffered both ways so a 20-byte
// header and its payload leave in one syscall, the buffers living as
// long as the connection.
type dataConn struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	stop func() bool // detaches the current stream's context watcher
}

// connPast is the deadline used to abort a stream's blocked I/O when
// its context is cancelled: any instant in the past works.
var connPast = time.Unix(1, 0)

// arm binds the connection to one stream: the stream's deadline becomes
// the connection deadline (none clears it), and cancellation aborts
// blocked reads and writes mid-stream.
func (c *dataConn) arm(ctx context.Context) {
	dl, _ := ctx.Deadline() // the zero time when ctx has none
	_ = c.nc.SetDeadline(dl)
	c.stop = context.AfterFunc(ctx, func() { _ = c.nc.SetDeadline(connPast) })
}

func (c *dataConn) close() {
	c.stop()
	_ = c.nc.Close()
}

// exchange sends one frame and reads the reply to it.
func (c *dataConn) exchange(typ uint8, sid uint64, payload []byte) (frame2, error) {
	if err := writeFrame2(c.bw, typ, 0, sid, payload); err != nil {
		return frame2{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return frame2{}, fmt.Errorf("svc: send frame: %w", err)
	}
	return readFrame2(c.br, nil)
}

// streamPool is one owner's parked stream connections, by address. The
// zero value is an owner with nothing parked.
type streamPool struct {
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

// park ends a stream on dc. A clean end — the stream's last frame read,
// its context watcher stopped before it fired, nothing unread, the
// deadline cleared — parks the connection for the owner's next stream
// to addr, up to maxIdleStreams; anything else closes it.
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
// own streams are over; the pool stays usable.
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

// acquireConn takes a connection to addr for one stream — a parked one
// when the owner has any, a fresh dial otherwise — and arms it on ctx.
// reused reports a parked connection. The sender side of the fault hook
// runs first, once per stream, wherever the connection comes from (see
// dial), and it and any dial run under a setup budget: a quarter of
// ctx's remaining deadline. Setup is where a gray peer (alive
// heartbeats, crawling service) stalls, and without the sub-budget one
// gray hop silently eats the caller's whole deadline: the op times out,
// the failure gets blamed on whatever node the caller reached for, and
// no budget is left to fail over. Bounding setup keeps a gray hop's cost
// to a slice of the budget, leaves the rest for alternates, and — for
// pipeline relays — lets the setup ack naming the actual stalled node
// reach the writer in time. Deadline-free contexts set up without a
// sub-budget.
func (p *streamPool) acquireConn(ctx context.Context, addr, local, peer string, faults TransportFaults) (dc *dataConn, reused bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	setup := ctx
	if dl, ok := ctx.Deadline(); ok {
		//lint:ignore determinism carving a setup slice out of a wall-clock deadline needs the wall clock; deadline-free contexts skip it
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, false, fmt.Errorf("svc: dial %s: %w", addr, context.DeadlineExceeded)
		}
		var cancel context.CancelFunc
		setup, cancel = context.WithTimeout(ctx, rem/4)
		defer cancel()
	}
	if err := faultGate(setup, faults, local, peer); err != nil {
		return nil, false, fmt.Errorf("svc: dial %s: %w", addr, err)
	}
	dc = p.take(addr)
	reused = dc != nil
	if !reused {
		nc, err := dial(setup, addr, local, peer, nil) // the gate has run
		if err != nil {
			return nil, false, err
		}
		dc = &dataConn{nc: nc, br: bufio.NewReaderSize(nc, streamReadBuf), bw: bufio.NewWriterSize(nc, 32<<10)}
	}
	dc.arm(ctx)
	return dc, reused, nil
}

// openStream starts one stream: a connection from acquireConn, the open
// frame typ — its payload built by open at send time, so the budget it
// carries is current — and the first reply. A parked connection whose
// peer closed it while it sat idle (a DataNode that restarted or dropped
// its connections) fails with EOF or a reset before any reply: nothing
// was served on it, so the stream closes the owner's other connections
// parked to addr alongside it and redials once, the fault gate already
// passed. That failure says nothing about the peer and never reaches the
// caller, its breaker or its liveness belief. A timeout is not retried:
// a stalled peer is evidence.
func (p *streamPool) openStream(ctx context.Context, addr, local, peer string, faults TransportFaults, typ uint8, sid uint64, open func() []byte) (*dataConn, frame2, error) {
	for redialed := false; ; redialed = true {
		dc, reused, err := p.acquireConn(ctx, addr, local, peer, faults)
		if err != nil {
			return nil, frame2{}, err
		}
		f, err := dc.exchange(typ, sid, open())
		if err == nil {
			return dc, f, nil
		}
		dc.close()
		if redialed || !reused || !peerClosed(err) {
			return nil, frame2{}, err
		}
		p.drop(addr)
		faults = nil
	}
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
// node, in chain order. A nil error means the commit acks arrived —
// individual nodes may still report failure in their entries. A non-nil
// error means the stream broke and the commit outcome of every chain
// node is unknown: the caller must treat all of them as unacked and
// clean up best-effort.
func (p *streamPool) pipelinePut(ctx context.Context, local string, faults TransportFaults, chain []chainEntry, id dfs.BlockID, data []byte) ([]ackEntry, error) {
	addr, peer := chain[0].Addr, endpointName(chain[0].Node)
	sid := streamIDs.Add(1)
	dc, sf, err := p.openStream(ctx, addr, local, peer, faults, frameOpenWrite, sid, func() []byte {
		return encodeOpenWrite(openWrite{Block: id, Size: int64(len(data)), DeadlineMS: budgetOf(ctx), From: local, Chain: chain[1:]})
	})
	if err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: setup: %w", id, err)
	}
	clean := false
	defer func() { p.park(addr, dc, clean) }()
	if sf.Type != frameSetupAck || sf.Stream != sid {
		sf.release()
		return nil, fmt.Errorf("%w: pipeline put block %d: unexpected setup frame type %d", ErrBadFrame, id, sf.Type)
	}
	setup, err := decodeAcks(sf.Payload)
	sf.release()
	if err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}
	if !anyOK(setup) {
		// Early abort: nobody admitted the stream, so there is nothing
		// to send — the setup entries are the final outcome, and the
		// stream ends here, uncleanly.
		return setup, nil
	}

	for off := 0; ; {
		n := len(data) - off
		if n > DefaultChunkSize {
			n = DefaultChunkSize
		}
		last := off+n == len(data)
		var flags uint16
		if last {
			flags = flagLast
		}
		// A partition formed mid-stream severs the remaining chunks,
		// exactly as it severs queued calls.
		if faults != nil {
			if ferr := faults.FailMessage(local, peer); ferr != nil {
				return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, ferr)
			}
		}
		if err := writeFrame2(dc.bw, frameChunk, flags, sid, data[off:off+n]); err != nil {
			return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
		}
		off += n
		if last {
			break
		}
	}
	if err := dc.bw.Flush(); err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}

	cf, err := readFrame2(dc.br, nil)
	if err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: commit: %w", id, err)
	}
	if cf.Type != frameCommitAck || cf.Stream != sid {
		cf.release()
		return nil, fmt.Errorf("%w: pipeline put block %d: unexpected commit frame type %d", ErrBadFrame, id, cf.Type)
	}
	acks, err := decodeAcks(cf.Payload)
	cf.release()
	if err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}
	clean = true
	return acks, nil
}

// streamGet reads one block over a v2 stream and appends it to dst,
// returning the extended slice: open, a header
// announcing the total size, then chunks, each read straight into its
// place in dst's spare capacity — grown once when it is short — so the
// block crosses user space once. A server-side failure arrives as an
// error frame whose taxonomy survives rehydration (errors.Is,
// IsTransient).
func (p *streamPool) streamGet(ctx context.Context, local string, faults TransportFaults, addr, peer string, id dfs.BlockID, dst []byte) ([]byte, error) {
	sid := streamIDs.Add(1)
	dc, hf, err := p.openStream(ctx, addr, local, peer, faults, frameOpenRead, sid, func() []byte {
		return encodeOpenRead(openRead{Block: id, DeadlineMS: budgetOf(ctx), From: local})
	})
	if err != nil {
		return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
	}
	clean := false
	defer func() { p.park(addr, dc, clean) }()
	if hf.Type == frameError {
		rerr := decodeErrorFrame(hf.Payload)
		hf.release()
		return nil, fmt.Errorf("svc: stream get block %d: %w", id, rerr)
	}
	if hf.Type != frameReadHdr || hf.Stream != sid {
		hf.release()
		return nil, fmt.Errorf("%w: stream get block %d: unexpected frame type %d", ErrBadFrame, id, hf.Type)
	}
	size, err := decodeReadHdr(hf.Payload)
	hf.release()
	if err != nil {
		return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
	}
	if size > MaxBlockBytes {
		return nil, fmt.Errorf("%w: stream get block %d announces %d bytes", ErrFrameTooLarge, id, size)
	}

	out := slices.Grow(dst, int(size))
	block := out[len(dst) : len(dst)+int(size)]
	got := 0
	for {
		cf, err := readFrame2(dc.br, block[got:])
		if err != nil {
			return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
		}
		if cf.Type == frameError {
			rerr := decodeErrorFrame(cf.Payload)
			cf.release()
			return nil, fmt.Errorf("svc: stream get block %d: %w", id, rerr)
		}
		if cf.Type != frameChunk || cf.Stream != sid {
			cf.release()
			return nil, fmt.Errorf("%w: stream get block %d: unexpected frame type %d", ErrBadFrame, id, cf.Type)
		}
		// A chunk that fits was read into block; one that does not was
		// pooled instead, and overflows the announced size.
		n, last := len(cf.Payload), cf.last()
		cf.release()
		if n > len(block)-got {
			return nil, fmt.Errorf("%w: stream get block %d overflows announced size %d", ErrBadFrame, id, size)
		}
		got += n
		if last {
			break
		}
	}
	if got != len(block) {
		return nil, fmt.Errorf("%w: stream get block %d: got %d of %d bytes", ErrBadFrame, id, got, size)
	}
	clean = true
	return out[:len(dst)+got], nil
}
