package svc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
)

// Client side of the block streams (see wire.go): dedicated
// connections carrying pipeline writes and chunked reads. One
// connection carries one stream; multiplexing is for call connections
// (conn.go), where frames are small.

// streamIDs mints stream ids. With one stream per connection the id
// is diagnostic — it ties the frames of a stream together in traces
// and guards against crossed frames.
var streamIDs atomic.Uint64

// dataConn is one dialed v2 stream connection: buffered both ways so
// a 20-byte header and its payload leave in one syscall.
type dataConn struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	stop func() bool // cancels the context watcher
}

// connPast is the deadline used to abort a stream's blocked I/O when
// its context is cancelled: any instant in the past works.
var connPast = time.Unix(1, 0)

// dialData opens a stream connection to addr (see dial for the fault
// hook). The stream inherits ctx end to end — its deadline becomes the
// connection deadline, and cancellation aborts blocked reads and
// writes mid-stream. The caller's open frame says which stream it is.
func dialData(ctx context.Context, addr, local, peer string, faults TransportFaults) (*dataConn, error) {
	nc, err := dial(ctx, addr, local, peer, faults)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(dl)
	}
	return &dataConn{
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		bw:   bufio.NewWriterSize(nc, 32<<10),
		stop: context.AfterFunc(ctx, func() { _ = nc.SetDeadline(connPast) }),
	}, nil
}

func (c *dataConn) close() {
	c.stop()
	_ = c.nc.Close()
}

// rearm detaches the conn's current context watchdog and re-arms it on
// parent: deadline from parent, cancellation poisons as before. Used
// when a sub-budget phase (stream setup) completes and the connection
// graduates to the stream's full budget. Reports false when the old
// watchdog already fired — the sub-budget expired and the conn is
// poisoned, so the caller must treat the setup as failed.
func (c *dataConn) rearm(parent context.Context) bool {
	if !c.stop() {
		return false
	}
	if dl, ok := parent.Deadline(); ok {
		_ = c.nc.SetDeadline(dl)
	} else {
		_ = c.nc.SetDeadline(time.Time{})
	}
	c.stop = context.AfterFunc(parent, func() { _ = c.nc.SetDeadline(connPast) })
	return true
}

// dialDataSetup dials a v2 stream under a setup budget — a quarter of
// ctx's remaining deadline — then re-arms the connection on the full
// budget. Dialing is where a gray peer (alive heartbeats, crawling
// service) stalls, and without the sub-budget one gray hop silently
// eats the caller's whole deadline: the op times out, the failure gets
// blamed on whatever node the caller dialed, and no budget is left to
// fail over. Bounding setup keeps a gray hop's cost to a slice of the
// budget, leaves the rest for alternates, and — for pipeline relays —
// lets the setup ack naming the actual stalled node reach the writer
// in time. Deadline-free contexts dial without a sub-budget.
func dialDataSetup(ctx context.Context, addr, local, peer string, faults TransportFaults) (*dataConn, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return dialData(ctx, addr, local, peer, faults)
	}
	//lint:ignore determinism carving a setup slice out of a wall-clock deadline needs the wall clock; deadline-free contexts take the branch above
	rem := time.Until(dl)
	if rem <= 0 {
		return nil, fmt.Errorf("svc: dial %s: %w", addr, context.DeadlineExceeded)
	}
	setupCtx, cancel := context.WithTimeout(ctx, rem/4)
	defer cancel()
	dc, err := dialData(setupCtx, addr, local, peer, faults)
	if err != nil {
		return nil, err
	}
	if !dc.rearm(ctx) {
		dc.close()
		return nil, fmt.Errorf("svc: dial %s: setup budget: %w", addr, context.DeadlineExceeded)
	}
	return dc, nil
}

// pipelinePut streams one block through the replication chain
// (chain[0] is dialed; the rest ride in the open frame for the relays)
// and returns the commit-phase ack entries, one per chain node, in
// chain order. A nil error means the commit acks arrived — individual
// nodes may still report failure in their entries. A non-nil error
// means the stream broke and the commit outcome of every chain node
// is unknown: the caller must treat all of them as unacked and clean
// up best-effort.
func pipelinePut(ctx context.Context, local string, faults TransportFaults, chain []chainEntry, id dfs.BlockID, data []byte) ([]ackEntry, error) {
	dc, err := dialDataSetup(ctx, chain[0].Addr, local, endpointName(chain[0].Node), faults)
	if err != nil {
		return nil, err
	}
	defer dc.close()
	sid := streamIDs.Add(1)
	ow := openWrite{Block: id, Size: int64(len(data)), DeadlineMS: budgetOf(ctx), From: local, Chain: chain[1:]}
	if err := writeFrame2(dc.bw, frameOpenWrite, 0, sid, encodeOpenWrite(ow)); err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}
	if err := dc.bw.Flush(); err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}

	sf, err := readFrame2(dc.br)
	if err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: setup: %w", id, err)
	}
	if sf.Type != frameSetupAck || sf.Stream != sid {
		sf.release()
		return nil, fmt.Errorf("%w: pipeline put block %d: unexpected setup frame type %d", ErrBadFrame, id, sf.Type)
	}
	setup, err := decodeAcks(sf.Payload)
	sf.release()
	if err != nil {
		return nil, fmt.Errorf("svc: pipeline put block %d: %w", id, err)
	}
	accepting := 0
	for _, e := range setup {
		if e.OK {
			accepting++
		}
	}
	if accepting == 0 {
		// Early abort: nobody admitted the stream, so there is nothing
		// to send — the setup entries are the final outcome.
		return setup, nil
	}

	peer := endpointName(chain[0].Node)
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

	cf, err := readFrame2(dc.br)
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
	return acks, nil
}

// streamGet reads one block over a v2 stream: open, header announcing
// the total size, then chunks assembled into a single buffer owned by
// the caller. A server-side failure arrives as an error frame whose
// taxonomy survives rehydration (errors.Is, IsTransient).
func streamGet(ctx context.Context, local string, faults TransportFaults, addr, peer string, id dfs.BlockID) ([]byte, error) {
	dc, err := dialDataSetup(ctx, addr, local, peer, faults)
	if err != nil {
		return nil, err
	}
	defer dc.close()
	sid := streamIDs.Add(1)
	or := openRead{Block: id, DeadlineMS: budgetOf(ctx), From: local}
	if err := writeFrame2(dc.bw, frameOpenRead, 0, sid, encodeOpenRead(or)); err != nil {
		return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
	}
	if err := dc.bw.Flush(); err != nil {
		return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
	}

	hf, err := readFrame2(dc.br)
	if err != nil {
		return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
	}
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

	// The result buffer is returned to the caller (who keeps it), so
	// it is allocated, not pooled; the chunk buffers it is assembled
	// from are pooled and released per frame.
	buf := make([]byte, 0, size)
	for {
		cf, err := readFrame2(dc.br)
		if err != nil {
			return nil, fmt.Errorf("svc: stream get block %d: %w", id, err)
		}
		if cf.Type == frameError {
			rerr := decodeErrorFrame(cf.Payload)
			cf.release()
			return nil, fmt.Errorf("svc: stream get block %d: %w", id, rerr)
		}
		if cf.Type != frameChunk {
			cf.release()
			return nil, fmt.Errorf("%w: stream get block %d: unexpected frame type %d", ErrBadFrame, id, cf.Type)
		}
		if int64(len(buf))+int64(len(cf.Payload)) > size {
			cf.release()
			return nil, fmt.Errorf("%w: stream get block %d overflows announced size %d", ErrBadFrame, id, size)
		}
		buf = append(buf, cf.Payload...)
		last := cf.last()
		cf.release()
		if last {
			break
		}
	}
	if int64(len(buf)) != size {
		return nil, fmt.Errorf("%w: stream get block %d: got %d of %d bytes", ErrBadFrame, id, len(buf), size)
	}
	return buf, nil
}
