package svc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"

	"github.com/adaptsim/adapt/internal/dfs"
)

// DataNode side of the block streams: the handler a connection's
// streams go to, each reporting whether it ended cleanly enough for the
// connection to carry the next exchange. A write stream is
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
// A block byte crosses this node's user space once each way, and is
// summed once, on the way in. A write draws the replica at the
// announced size from the replica pool (dfs.NewReplicaBuf), reads every
// chunk into its place there — the frame check yielding the chunk's
// CRC32C — forwards it downstream from there with the header and CRC it
// arrived with, and on commit hands that very buffer to the store with
// the chunks' sums (dfs.DataNode.Adopt); a stream that ends without a
// commit hands it back to the pool. A read streams the stored replica
// itself (dfs.DataNode.View) under a pin, on the chunk boundaries it
// was written in, each chunk framed with its stored sum and not summed
// again: replicas are never written in place, and a deleted or replaced
// one's buffer is recycled only once its last reader releases it, so no
// copy is needed to serve one.

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
	var ow openWrite
	if !decodeValue(f.Payload, &ow) || ow.Size > MaxBlockBytes {
		return false
	}
	name := endpointName(d.id)
	// Serving-side fault check, as for incoming calls: a partition
	// severs streams already under way, not just new ones.
	if d.srv.faults != nil {
		if d.srv.faults.FailMessage(ow.From, name) != nil {
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
		shed := make(ackList, 0, 1+len(ow.Chain))
		shed = append(shed, failedAck(d.id, aerr))
		for _, ce := range ow.Chain {
			shed = append(shed, failedAck(ce.Node, aerr))
		}
		if _, err := readFrame2(br, nil); err == nil {
			if writeFrame2(bw, frameSetupAck, 0, sid, shed.appendWire(payloadBuf())) == nil {
				_ = bw.Flush()
			}
		}
		return false
	}
	defer release()

	// Receive the block straight into the replica: each chunk is read
	// into its place in buf (CRC-checked there, its sum kept in sums),
	// relayed downstream from there with the header it arrived with, and
	// buf itself becomes the stored replica on commit. Nothing else
	// writes buf, before or after; every exit without a commit recycles
	// it, as nothing here holds it once this function returns. The sums
	// of a block of a few chunks stay in inline, which Adopt copies.
	buf := dfs.NewReplicaBuf(int(ow.Size))
	adopted := false
	defer func() {
		if !adopted {
			dfs.RecycleReplicaBuf(buf)
		}
	}()
	cf, ok := readChunk(br, sid, buf)
	if !ok {
		return false // torn or corrupt: nothing relayed, nothing committed
	}
	var inline [4]dfs.ChunkSum
	sums := append(inline[:0], dfs.ChunkSum{Len: uint32(len(cf.Payload)), Sum: cf.sum})

	// The first chunk, checked, goes downstream with this hop's open
	// frame, so the setup ack sent upstream below already says which
	// chain nodes are in and the deeper ones hold that chunk.
	var down *dataConn
	var downAcks ackList
	downClean := false
	if len(ow.Chain) > 0 {
		next := ow.Chain[0]
		dc, sf, derr := d.conns.openStream(ctx, next.Addr, endpointName(next.Node), func(w io.Writer) error {
			// The forwarded budget is recomputed from this hop's derived
			// context, not copied from the open frame: whatever this node
			// already spent is gone, so an N-deep chain shares one budget
			// instead of re-arming it per hop.
			if err := writeFrame2(w, frameOpenWrite, 0, sid, openWrite{Block: ow.Block, Size: ow.Size, DeadlineMS: budgetOf(ctx), From: name, Chain: ow.Chain[1:]}.appendWire(payloadBuf())); err != nil {
				return err
			}
			if err := d.relayFault(next); err != nil {
				return err
			}
			return forwardFrame(w, &cf)
		})
		if derr == nil {
			switch {
			case sf.Type != frameSetupAck:
				derr = fmt.Errorf("%w: setup reply type %d", ErrBadFrame, sf.Type)
			case !decodeValue(sf.Payload, &downAcks):
				derr = fmt.Errorf("%w: malformed setup ack", ErrBadFrame)
			}
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
				d.conns.park(next.Addr, down, downClean)
			}
		}()
	}
	// A one-chunk block's setup ack waits in bw for its commit ack.
	setup := append(ackList{{Node: d.id, OK: true}}, downAcks...)
	if writeFrame2(bw, frameSetupAck, 0, sid, setup.appendWire(payloadBuf())) != nil || (!cf.last() && bw.Flush() != nil) {
		return false
	}

	received := len(cf.Payload)
	for !cf.last() {
		if cf, ok = readChunk(br, sid, buf[received:]); !ok {
			return false // torn stream: no commit, writer cleans up
		}
		sums = append(sums, dfs.ChunkSum{Len: uint32(len(cf.Payload)), Sum: cf.sum})
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
			downAcks = nodeDownAcks(ow.Chain, fmt.Errorf("%w: commit reply type %d", ErrBadFrame, cf.Type))
		default:
			downClean = decodeValue(cf.Payload, &downAcks)
			if !downClean {
				downAcks = nodeDownAcks(ow.Chain, fmt.Errorf("%w: malformed commit ack", ErrBadFrame))
			}
		}
	}
	var self ackEntry
	if cerr := ctx.Err(); cerr != nil {
		self = failedAck(d.id, cerr)
	} else if perr := d.dn.Adopt(ow.Block, buf, sums); perr != nil {
		self = failedAck(d.id, perr)
	} else {
		adopted = true
		self = ackEntry{Node: d.id, OK: true}
	}
	commit := append(ackList{self}, downAcks...)
	return writeFrame2(bw, frameCommitAck, 0, sid, commit.appendWire(payloadBuf())) == nil && bw.Flush() == nil
}

// readChunk reads the next chunk of stream sid into dst's first bytes.
// ok is false for anything else: a torn stream, a failed CRC, another
// frame, or a chunk that overflows dst (readFrame2 read it elsewhere).
func readChunk(br *bufio.Reader, sid uint64, dst []byte) (frame2, bool) {
	cf, err := readFrame2(br, dst)
	if err != nil {
		return frame2{}, false
	}
	if cf.Type != frameChunk || cf.Stream != sid || len(cf.Payload) > len(dst) {
		return frame2{}, false
	}
	return cf, true
}

// relayFault consults the fault hook for one chunk this node relays to
// next.
func (d *DataNodeServer) relayFault(next chainEntry) error {
	if d.conns.faults == nil {
		return nil
	}
	return d.conns.faults.FailMessage(d.conns.local, endpointName(next.Node))
}

func (d *DataNodeServer) serveRead(ctx context.Context, nc net.Conn, br *bufio.Reader, bw *bufio.Writer, f frame2) (clean bool) {
	sid := f.Stream
	var or openRead
	if !decodeValue(f.Payload, &or) {
		return false
	}
	name := endpointName(d.id)
	if d.srv.faults != nil {
		if d.srv.faults.FailMessage(or.From, name) != nil {
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
		if writeFrame2(bw, frameError, flagLast, sid, failedAck(0, aerr).failure.appendWire(payloadBuf())) == nil {
			_ = bw.Flush()
		}
		return false
	}
	defer release()

	// The stored replica itself is streamed, pinned until the stream
	// ends: a delete or re-put of the block while it runs replaces the
	// map entry, and these bytes are recycled only after the release.
	// Each chunk goes out under the sum stored with it, so bytes that
	// changed since they were checked in — rot, or a fault injector's
	// copy — fail the reader's frame check.
	data, sums, unpin, gerr := d.dn.View(or.Block)
	if gerr != nil {
		if writeFrame2(bw, frameError, flagLast, sid, failedAck(0, gerr).failure.appendWire(payloadBuf())) == nil {
			_ = bw.Flush()
		}
		return false
	}
	defer unpin()
	if writeFrame2(bw, frameReadHdr, 0, sid, readHdr{Size: int64(len(data))}.appendWire(payloadBuf())) != nil {
		return false
	}
	off := 0
	for i, cs := range sums {
		var flags uint16
		if i == len(sums)-1 {
			flags = flagLast
		}
		// A mid-stream partition severs the remaining chunks.
		if d.srv.faults != nil {
			if d.srv.faults.FailMessage(or.From, name) != nil {
				return false
			}
		}
		n := int(cs.Len)
		if writeSummed(bw, frameChunk, flags, sid, data[off:off+n], cs.Sum) != nil {
			return false
		}
		off += n
	}
	return bw.Flush() == nil
}
