package svc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"

	"github.com/adaptsim/adapt/internal/dfs"
)

// DataNode side of the block streams: the handler a stream connection's
// streams go to, one after another, each reporting whether it ended
// cleanly enough for the connection to carry the next. A write stream is
// relayed down the replication chain HDFS-style, one chain round trip a
// block: the writer's open frame arrives with the block's first chunk
// behind it, and this node checks that chunk into its replica before it
// takes a connection to the next hop from its own relay pool (dialing
// only when none is parked) and sends its own open frame and the chunk
// there in one flush. Its setup ack goes upstream once the downstream
// one is back; later chunks are forwarded as they arrive. Commit is
// deepest-first: downstream commit acks are collected before the local
// put, and only then is the combined ack sent upstream — together with
// the setup ack when the first chunk was the whole block — so a torn
// stream can never leave a committed prefix the writer did not hear
// about from every deeper node first.
//
// A block byte crosses this node's user space once each way. A write
// allocates the replica at the announced size, reads every chunk into
// its place there, forwards it downstream from there with the header
// and CRC it arrived with, and on commit hands that very buffer to the
// store (dfs.DataNode.Adopt). A read streams the stored replica itself
// (dfs.DataNode.View): replicas are immutable, replaced or deleted but
// never written, so no copy is needed to serve one.

// serveData serves the stream that open begins.
func (d *DataNodeServer) serveData(ctx context.Context, nc net.Conn, br *bufio.Reader, bw *bufio.Writer, open frame2) bool {
	if open.Type == frameOpenWrite {
		return d.serveWrite(ctx, nc, br, bw, open)
	}
	return d.serveRead(ctx, nc, br, bw, open)
}

// streamCtx derives the stream's context from the open frame's
// deadline budget and mirrors it onto the connection, so a cancelled
// or expired stream aborts blocked I/O instead of hanging. end releases
// the context and reports whether its watcher was stopped before it
// fired — false means the connection's deadline was poisoned.
func streamCtx(ctx context.Context, nc net.Conn, deadlineMS int64) (_ context.Context, end func() bool) {
	ctx, cancel := budgetCtx(ctx, deadlineMS)
	if dl, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(dl)
	}
	stop := context.AfterFunc(ctx, func() { _ = nc.SetDeadline(connPast) })
	return ctx, func() bool {
		defer cancel()
		return stop()
	}
}

// nodeDownAcks reports a severed hop: chain[0] — the node this relay
// actually failed to reach — is marked failed with an ErrNodeDown
// wrap, and deeper nodes are omitted. An omitted node reads as
// "commit outcome unknown" at the writer, which still counts the
// replica as failed for placement but records no transport evidence:
// blaming the whole suffix would let one gray hop feed false breaker
// failures against every healthy node placed behind it.
func nodeDownAcks(chain []chainEntry, cause error) []ackEntry {
	if len(chain) == 0 {
		return nil
	}
	return []ackEntry{failedAck(chain[0].Node,
		fmt.Errorf("%w: datanode %d unreachable in pipeline: %v", dfs.ErrNodeDown, chain[0].Node, cause))}
}

// anyOK reports whether some entry accepted.
func anyOK(acks []ackEntry) bool {
	for _, e := range acks {
		if e.OK {
			return true
		}
	}
	return false
}

func (d *DataNodeServer) serveWrite(ctx context.Context, nc net.Conn, br *bufio.Reader, bw *bufio.Writer, f frame2) (clean bool) {
	sid := f.Stream
	ow, err := decodeOpenWrite(f.Payload)
	f.release()
	if err != nil || ow.Size > MaxBlockBytes {
		return false
	}
	name := endpointName(d.id)
	// Serving-side fault check, as for incoming calls: a partition
	// severs streams already under way, not just new ones.
	if d.faults != nil {
		if d.faults.FailMessage(ow.From, name) != nil {
			return false
		}
	}
	ctx, end := streamCtx(ctx, nc, ow.DeadlineMS)
	defer func() { clean = end() && clean }()

	// A write stream is a put: it competes for the admission budget
	// under that class, and a shed stream answers with a setup ack
	// marking every chain node overloaded (wire taxonomy intact), which
	// the writer's pipelinePut early-aborts on — fail fast, nothing past
	// the first chunk. That chunk is already on its way, so it is read
	// and dropped first: a connection closed with it unread could reset
	// before the writer reads the ack.
	release, aerr := d.srv.admit.Load().acquire(ctx, classPut)
	if aerr != nil {
		shed := make([]ackEntry, 0, 1+len(ow.Chain))
		shed = append(shed, failedAck(d.id, aerr))
		for _, ce := range ow.Chain {
			shed = append(shed, failedAck(ce.Node, aerr))
		}
		if cf, err := readFrame2(br, nil); err == nil {
			cf.release()
			if writeFrame2(bw, frameSetupAck, 0, sid, encodeAcks(shed)) == nil {
				_ = bw.Flush()
			}
		}
		return false
	}
	defer release()

	// Receive the block straight into the replica: each chunk is read
	// into its place in buf (CRC-checked there), relayed downstream from
	// there with the header it arrived with, and buf itself becomes the
	// stored replica on commit. Nothing else writes buf, before or after.
	buf := make([]byte, ow.Size)
	cf, ok := readChunk(br, sid, buf)
	if !ok {
		return false // torn or corrupt: nothing relayed, nothing committed
	}

	// The first chunk, checked, goes downstream with this hop's open
	// frame, so the setup ack sent upstream below already says which
	// chain nodes are in and the deeper ones hold that chunk.
	var down *dataConn
	var downAcks []ackEntry
	downClean := false
	if len(ow.Chain) > 0 {
		next := ow.Chain[0]
		dc, sf, derr := d.relays.openStream(ctx, next.Addr, name, endpointName(next.Node), d.faults, func(w io.Writer) error {
			// The forwarded budget is recomputed from this hop's derived
			// context, not copied from the open frame: whatever this node
			// already spent is gone, so an N-deep chain shares one budget
			// instead of re-arming it per hop.
			if err := writeFrame2(w, frameOpenWrite, 0, sid, encodeOpenWrite(openWrite{Block: ow.Block, Size: ow.Size, DeadlineMS: budgetOf(ctx), From: name, Chain: ow.Chain[1:]})); err != nil {
				return err
			}
			if err := d.relayFault(next); err != nil {
				return err
			}
			return forwardFrame(w, &cf)
		})
		if derr == nil {
			if sf.Type == frameSetupAck {
				downAcks, derr = decodeAcks(sf.Payload)
			} else {
				derr = fmt.Errorf("%w: setup reply type %d", ErrBadFrame, sf.Type)
			}
			sf.release()
			// A deeper chain that shed the stream has said its final word
			// in its setup entries, and that stream is over.
			if derr != nil || !anyOK(downAcks) {
				dc.close()
			} else {
				down = dc
			}
		}
		if derr != nil {
			downAcks = nodeDownAcks(ow.Chain, derr)
		}
		defer func() {
			if down != nil {
				d.relays.park(next.Addr, down, downClean)
			}
		}()
	}
	// A one-chunk block's setup ack waits in bw for its commit ack.
	setup := append([]ackEntry{{Node: d.id, OK: true}}, downAcks...)
	if writeFrame2(bw, frameSetupAck, 0, sid, encodeAcks(setup)) != nil || (!cf.last() && bw.Flush() != nil) {
		return false
	}

	received := len(cf.Payload)
	for !cf.last() {
		if cf, ok = readChunk(br, sid, buf[received:]); !ok {
			return false // torn stream: no commit, writer cleans up
		}
		if down != nil {
			relayErr := d.relayFault(ow.Chain[0])
			if relayErr == nil {
				relayErr = forwardFrame(down.bw, &cf)
			}
			if relayErr == nil && cf.last() {
				relayErr = down.bw.Flush()
			}
			if relayErr != nil {
				// The deeper chain is gone; keep receiving for the
				// local replica and report the loss in the commit ack.
				down.close()
				down = nil
				downAcks = nodeDownAcks(ow.Chain, relayErr)
			}
		}
		received += len(cf.Payload)
	}
	if received != len(buf) {
		return false // short stream: never commit a partial block
	}

	// Commit deepest-first: downstream acks before the local put.
	if down != nil {
		cf, rerr := readFrame2(down.br, nil)
		switch {
		case rerr != nil:
			downAcks = nodeDownAcks(ow.Chain, rerr)
		case cf.Type != frameCommitAck:
			cf.release()
			downAcks = nodeDownAcks(ow.Chain, fmt.Errorf("%w: commit reply type %d", ErrBadFrame, cf.Type))
		default:
			var derr error
			downAcks, derr = decodeAcks(cf.Payload)
			cf.release()
			if derr != nil {
				downAcks = nodeDownAcks(ow.Chain, derr)
			}
			downClean = derr == nil
		}
	}
	var self ackEntry
	if cerr := ctx.Err(); cerr != nil {
		self = failedAck(d.id, cerr)
	} else if perr := d.dn.Adopt(ow.Block, buf); perr != nil {
		self = failedAck(d.id, perr)
	} else {
		self = ackEntry{Node: d.id, OK: true}
	}
	commit := append([]ackEntry{self}, downAcks...)
	return writeFrame2(bw, frameCommitAck, 0, sid, encodeAcks(commit)) == nil && bw.Flush() == nil
}

// readChunk reads the next chunk of stream sid into dst's first bytes.
// ok is false for anything else: a torn stream, a failed CRC, another
// frame, or a chunk that overflows dst (readFrame2 pooled it instead).
func readChunk(br *bufio.Reader, sid uint64, dst []byte) (frame2, bool) {
	cf, err := readFrame2(br, dst)
	if err != nil {
		return frame2{}, false
	}
	if cf.Type != frameChunk || cf.Stream != sid || cf.pooled {
		cf.release()
		return frame2{}, false
	}
	return cf, true
}

// relayFault consults the fault hook for one chunk this node relays to
// next.
func (d *DataNodeServer) relayFault(next chainEntry) error {
	if d.faults == nil {
		return nil
	}
	return d.faults.FailMessage(endpointName(d.id), endpointName(next.Node))
}

func (d *DataNodeServer) serveRead(ctx context.Context, nc net.Conn, br *bufio.Reader, bw *bufio.Writer, f frame2) (clean bool) {
	sid := f.Stream
	or, err := decodeOpenRead(f.Payload)
	f.release()
	if err != nil {
		return false
	}
	name := endpointName(d.id)
	if d.faults != nil {
		if d.faults.FailMessage(or.From, name) != nil {
			return false
		}
	}
	ctx, end := streamCtx(ctx, nc, or.DeadlineMS)
	defer func() { clean = end() && clean }()

	// A read stream is a get: shed requests answer with an overload
	// error frame whose taxonomy survives rehydration on the reader. An
	// error frame ends the stream and its connection.
	release, aerr := d.srv.admit.Load().acquire(ctx, classGet)
	if aerr != nil {
		if writeFrame2(bw, frameError, flagLast, sid, encodeErrorFrame(aerr)) == nil {
			_ = bw.Flush()
		}
		return false
	}
	defer release()

	// The stored replica itself is streamed: replicas are immutable, so
	// a delete or re-put of the block while this stream runs replaces
	// the map entry and leaves these bytes as they are.
	data, gerr := d.dn.View(or.Block)
	if gerr != nil {
		if writeFrame2(bw, frameError, flagLast, sid, encodeErrorFrame(gerr)) == nil {
			_ = bw.Flush()
		}
		return false
	}
	if writeFrame2(bw, frameReadHdr, 0, sid, encodeReadHdr(int64(len(data)))) != nil {
		return false
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
		// A mid-stream partition severs the remaining chunks.
		if d.faults != nil {
			if d.faults.FailMessage(or.From, name) != nil {
				return false
			}
		}
		if writeFrame2(bw, frameChunk, flags, sid, data[off:off+n]) != nil {
			return false
		}
		off += n
		if last {
			break
		}
	}
	return bw.Flush() == nil
}
