package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// pipelineCluster boots an n-node cluster on the binary data path with
// the given block size and replication.
func pipelineCluster(t *testing.T, n int, blockSize int64, replication int, faults TransportFaults) *LocalCluster {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(7), faults, NameNodeConfig{
		BlockSize:   blockSize,
		Replication: replication,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	return lc
}

// TestPipelineThreeDeepChain writes at replication 3, so every block
// crosses a client -> DN1 -> DN2 -> DN3 relay chain, and reads back.
func TestPipelineThreeDeepChain(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 3, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	data := payload(6 * 1024)
	fm, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinReplication != 3 || report.DegradedBlocks != 0 {
		t.Fatalf("report = %+v, want full replication 3", report)
	}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas: %v", bm.ID, len(bm.Replicas), bm.Replicas)
		}
	}

	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}
	// Every replica of every block must hold the true bytes — the
	// relay path stored them, not just the head of the chain.
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMultiChunkBlocks uses blocks larger than the chunk size,
// so one block crosses the pipeline as several frames each way.
func TestPipelineMultiChunkBlocks(t *testing.T) {
	lc := pipelineCluster(t, 3, 1<<20, 2, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	data := payload(2<<20 + 12345) // 3 blocks, ~4 chunks each
	if _, report, err := cl.CopyFromLocal(ctx, "big", data, false); err != nil {
		t.Fatal(err)
	} else if report.MinReplication != 2 {
		t.Fatalf("report = %+v", report)
	}
	got, err := cl.ReadFile(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-chunk read differs from written")
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}

	// The relay: a multi-chunk block written through DataNode 0 to a
	// recording next hop arrives there byte for byte as it was sent —
	// every header, CRC included, forwarded as received — and is stored
	// on the relay too. The first chunk travels with the open frame:
	// the writer sends both before it reads anything, and the recording
	// hop answers its setup only once it holds that chunk, so a relay
	// that waited for a setup ack before forwarding it would stall here.
	// A chunk corrupted on its way to DataNode 0 is refused there:
	// nothing is relayed, stored or acknowledged.
	relay := lc.DNs[0]
	block := data[:DefaultChunkSize+777]
	frames := chunkFrames(t, 51, block, 0)
	first := headerSize + DefaultChunkSize // chunk 0's frame
	hop := recordingHop(t, 9)
	p := dialRaw(t, relay.Addr())
	p.send(frameOpenWrite, 0, 51, encodeOpenWrite(openWrite{Block: 1 << 40, Size: int64(len(block)), From: "tester", Chain: []chainEntry{{Node: 9, Addr: hop.addr}}}))
	if _, err := p.nc.Write(frames[:first]); err != nil {
		t.Fatal(err)
	}
	if acks, err := decodeAcks(p.recv(frameSetupAck)); err != nil || len(acks) != 2 || !acks[0].OK || !acks[1].OK {
		t.Fatalf("setup acks %+v, %v", acks, err)
	}
	if _, err := p.nc.Write(frames[first:]); err != nil {
		t.Fatal(err)
	}
	if acks, err := decodeAcks(p.recv(frameCommitAck)); err != nil || len(acks) != 2 || !acks[0].OK || !acks[1].OK {
		t.Fatalf("commit acks %+v, %v", acks, err)
	}
	if relayed := <-hop.got; !bytes.Equal(relayed, frames) {
		t.Fatalf("the relay forwarded %d bytes that differ from the %d it received", len(relayed), len(frames))
	}
	if stored, err := relay.Node().View(1 << 40); err != nil || !bytes.Equal(stored, block) {
		t.Fatalf("relay stored %d bytes, %v", len(stored), err)
	}

	torn := chunkFrames(t, 52, block, headerSize+100)
	var replica [DefaultChunkSize]byte
	if _, err := readFrame2(bytes.NewReader(torn), replica[:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupted chunk reads as %v, want ErrBadFrame", err)
	}
	hop = recordingHop(t, 9)
	p = dialRaw(t, relay.Addr())
	p.send(frameOpenWrite, 0, 52, encodeOpenWrite(openWrite{Block: 1<<40 + 1, Size: int64(len(block)), From: "tester", Chain: []chainEntry{{Node: 9, Addr: hop.addr}}}))
	if _, err := p.nc.Write(torn[:first]); err != nil {
		t.Fatal(err)
	}
	// The relay hangs up without a setup ack; unread bytes may turn its
	// close into a reset.
	if f, err := readFrame2(p.br, nil); !peerClosed(err) {
		f.release()
		t.Fatalf("after a corrupted chunk the relay answered %+v, %v; want it to hang up", f, err)
	}
	// It checks the chunk before it opens the next hop, so the hop
	// never hears of the stream.
	_ = hop.ln.Close()
	if relayed := <-hop.got; len(relayed) != 0 {
		t.Fatalf("the relay forwarded %d bytes of a stream whose first chunk it refused", len(relayed))
	}
	if relay.Node().Has(1<<40 + 1) {
		t.Fatal("the relay stored a block whose chunk failed its CRC")
	}
}

// chunkFrames renders block as the chunk frames of stream sid, with the
// byte at offset corrupt (0: none) flipped after framing.
func chunkFrames(t *testing.T, sid uint64, block []byte, corrupt int) []byte {
	t.Helper()
	var wire bytes.Buffer
	for off := 0; off < len(block); off += DefaultChunkSize {
		end := min(off+DefaultChunkSize, len(block))
		flags := uint16(0)
		if end == len(block) {
			flags = flagLast
		}
		if err := writeFrame2(&wire, frameChunk, flags, sid, block[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	raw := wire.Bytes()
	if corrupt > 0 {
		raw[corrupt] ^= 0xFF
	}
	return raw
}

// hopRecorder is a fake last pipeline hop: it admits one write stream
// as node once the open frame and the first chunk are in, records the
// raw bytes of the chunk frames it receives, and commits once the last
// one is in. got delivers the recording when the stream ends, cleanly
// or not, or when ln is closed before any stream came.
type hopRecorder struct {
	ln   net.Listener
	addr string
	got  chan []byte
}

func recordingHop(t *testing.T, node cluster.NodeID) hopRecorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	h := hopRecorder{ln: ln, addr: ln.Addr().String(), got: make(chan []byte, 1)}
	go func() {
		var raw bytes.Buffer
		defer func() { h.got <- raw.Bytes() }()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(nc)
		open, err := readFrame2(br, nil)
		if err != nil {
			return
		}
		open.release()
		// record copies one chunk frame off the wire as it arrived.
		record := func() (last bool, err error) {
			var hdr [headerSize]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return false, err
			}
			raw.Write(hdr[:])
			if _, err := io.CopyN(&raw, br, int64(binary.BigEndian.Uint32(hdr[12:16]))); err != nil {
				return false, err
			}
			return binary.BigEndian.Uint16(hdr[2:4])&flagLast != 0, nil
		}
		last, err := record()
		if err != nil {
			return
		}
		if writeFrame2(nc, frameSetupAck, 0, open.Stream, encodeAcks([]ackEntry{{Node: node, OK: true}})) != nil {
			return
		}
		for !last {
			if last, err = record(); err != nil {
				return
			}
		}
		_ = writeFrame2(nc, frameCommitAck, 0, open.Stream, encodeAcks([]ackEntry{{Node: node, OK: true}}))
	}()
	return h
}

// TestPipelineFailsOverDeadChainNode: a chain node whose storage is
// down must not sink the write — the commit ack reports it failed with
// the node-down taxonomy, and the engine diverts that replica to an
// alternate live node, exactly as the fan-out path would.
func TestPipelineFailsOverDeadChainNode(t *testing.T) {
	lc := pipelineCluster(t, 4, 1024, 3, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	victim := cluster.NodeID(1)
	if err := lc.SetNodeUp(victim, false); err != nil {
		t.Fatal(err)
	}

	data := payload(4 * 1024)
	_, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinReplication != 3 {
		t.Fatalf("report = %+v, want failover to keep replication 3", report)
	}
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if counts[victim] != 0 {
		t.Fatalf("dead node holds %d replicas: %v", counts[victim], counts)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 12 { // 4 blocks x replication 3 on the 3 live nodes
		t.Fatalf("distribution %v sums to %d, want 12", counts, total)
	}
	if cl.resilience().NodeDownErrors == 0 {
		t.Fatal("dead chain node produced no NodeDownErrors")
	}

	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}
}

// TestPipelineUnreachableChainNode partitions the middle of the chain
// at the transport layer: the relay cannot dial it, the setup ack
// reports it down, and the write diverts to the live spare.
func TestPipelineUnreachableChainNode(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	lc := pipelineCluster(t, 4, 1024, 3, nf)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	victim := cluster.NodeID(2)
	nf.Partition(endpointName(victim))

	data := payload(3 * 1024)
	_, report, err := cl.CopyFromLocal(ctx, "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinReplication != 3 {
		t.Fatalf("report = %+v, want failover to keep replication 3", report)
	}
	counts, err := cl.BlockDistribution(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if counts[victim] != 0 {
		t.Fatalf("partitioned node holds %d replicas: %v", counts[victim], counts)
	}
	nf.Heal(endpointName(victim))
	got, err := cl.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from written")
	}
}

// TestScrubOrphansRemovesUnreferencedReplicas plants a replica no file
// references — the residue a torn pipeline leaves when its cleanup
// cannot reach a holder — and asserts one repair scan removes exactly
// it: live blocks and blocks minted after the scan's high-water mark
// stay.
func TestScrubOrphansRemovesUnreferencedReplicas(t *testing.T) {
	lc := pipelineCluster(t, 3, 1024, 2, nil)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// Mint real block ids 0..3, then orphan them by deleting the file.
	if _, _, err := cl.CopyFromLocal(ctx, "doomed", payload(4*1024), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.CopyFromLocal(ctx, "keeper", payload(2*1024), false); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}

	// Plant the torn-write residue by hand: a deleted block's id on a
	// node, below the high-water mark, referenced by nothing.
	dn0 := lc.DNs[0].Node()
	if err := dn0.Put(dfs.BlockID(2), []byte("orphan bytes")); err != nil {
		t.Fatal(err)
	}
	// And one above the high-water mark: an in-flight create's block
	// the scrubber must leave alone.
	const futureID = dfs.BlockID(1 << 40)
	if err := dn0.Put(futureID, []byte("in-flight bytes")); err != nil {
		t.Fatal(err)
	}

	before := storedReplicas(lc)
	lc.NN.RepairScan()
	if after := storedReplicas(lc); after != before-1 {
		t.Fatalf("repair scan removed %d replicas, want exactly the planted orphan", before-after)
	}
	if dn0.Has(dfs.BlockID(2)) {
		t.Fatal("orphan survived the repair scan")
	}
	if !dn0.Has(futureID) {
		t.Fatal("repair scan deleted a block above the high-water mark")
	}
	dn0.Delete(futureID)

	// The keeper file is untouched and the namespace consistent.
	if _, err := cl.ReadFile(ctx, "keeper"); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckConsistency(ctx); err != nil {
		t.Fatal(err)
	}
	// A second pass finds nothing.
	if removed, err := lc.Engine().ScrubOrphans(ctx); err != nil || removed != 0 {
		t.Fatalf("second scrub: removed %d, err %v", removed, err)
	}
}

// TestRepairScanCollectsDeleteResidue: a delete made while one holder
// is partitioned cannot invalidate that holder's replicas. Once the
// holder is back, one repair scan removes exactly that residue and
// leaves the surviving file whole.
func TestRepairScanCollectsDeleteResidue(t *testing.T) {
	nf, err := chaos.NewNetFaults(stats.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	lc := pipelineCluster(t, 4, 1024, 2, nf)
	cl := lc.Client("shell")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	gone, _, err := cl.CopyFromLocal(ctx, "gone", payload(2*1024), false)
	if err != nil {
		t.Fatal(err)
	}
	kept := payload(3 * 1024)
	if _, _, err := cl.CopyFromLocal(ctx, "kept", kept, false); err != nil {
		t.Fatal(err)
	}

	holder := endpointName(gone.Blocks[0].Replicas[0])
	nf.Partition(holder)
	if err := cl.Delete(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	nf.Heal(holder)
	// Without fresh heartbeats the NameNode still believes the healed
	// node down and would repair "kept" onto a third holder.
	if err := lc.FlushHeartbeats(ctx); err != nil {
		t.Fatal(err)
	}
	if n := storedReplicas(lc); n <= 3*2 {
		t.Fatalf("%d replicas stored before the scan: the partition left no residue to collect", n)
	}

	lc.NN.RepairScan()
	if n := storedReplicas(lc); n != 3*2 {
		t.Fatalf("%d replicas stored after the repair scan, want the 6 of %q", n, "kept")
	}
	for _, bm := range gone.Blocks {
		for i, dn := range lc.DNs {
			if dn.Node().Has(bm.ID) {
				t.Errorf("node %d still stores block %d of the deleted file", i, bm.ID)
			}
		}
	}
	if got, err := cl.ReadFile(ctx, "kept"); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("read back %q after the repair scan: %v", "kept", err)
	}
}

// TestStreamGetCancelledContext: a dead context must abort the stream
// dial instead of hanging.
func TestStreamGetCancelledContext(t *testing.T) {
	lc := pipelineCluster(t, 2, 1024, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := streamGet(ctx, "test", nil, lc.DNs[0].Addr(), endpointName(0), 0)
	if err == nil {
		t.Fatal("cancelled stream get succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestShedWriteReadsFirstChunkThenAnswers: a write stream's first chunk
// arrives with its open frame, so a DataNode with no admission capacity
// left has that chunk on the wire when it sheds the stream. It reads
// the chunk off and drops it, then answers with a setup ack that marks
// it and every chain node overloaded; the writer reads that typed
// answer, never a reset, and every pooled buffer comes back.
func TestShedWriteReadsFirstChunkThenAnswers(t *testing.T) {
	lc := pipelineCluster(t, 2, 1024, 2, nil)
	start := frameBufs.balance()
	dn := lc.DNs[0]
	drain := saturate(t, dn)
	defer drain()
	chain := []chainEntry{{Node: 0, Addr: dn.Addr()}, {Node: 1, Addr: lc.DNs[1].Addr()}}
	overloaded := func(what string, acks []ackEntry) {
		t.Helper()
		if len(acks) != len(chain) {
			t.Fatalf("%s: %d setup entries, want one per chain node", what, len(acks))
		}
		for i, e := range acks {
			if e.Node != chain[i].Node || !errors.Is(e.err(), dfs.ErrOverload) {
				t.Fatalf("%s: entry %d = %+v, want node %d overloaded", what, i, e, chain[i].Node)
			}
		}
	}

	// On the wire: the open frame and a full first chunk of a larger
	// block, sent before anything is read back.
	block := payload(2 * DefaultChunkSize)
	raw := dialRaw(t, dn.Addr())
	raw.send(frameOpenWrite, 0, 7, encodeOpenWrite(openWrite{Block: 70, Size: int64(len(block)), From: "tester", Chain: chain[1:]}))
	raw.send(frameChunk, 0, 7, block[:DefaultChunkSize])
	acks, err := decodeAcks(raw.recv(frameSetupAck))
	if err != nil {
		t.Fatal(err)
	}
	overloaded("raw", acks)
	raw.closed()

	// Through the writer, one- and multi-chunk blocks alike: the shed
	// is the outcome, not a broken stream.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var p streamPool
	defer p.close()
	for i := 0; i < 20; i++ {
		data := block[:100]
		if i%2 == 1 {
			data = block
		}
		acks, err := p.pipelinePut(ctx, "writer", nil, chain, dfs.BlockID(71+i), data)
		if err != nil {
			t.Fatalf("put %d against a shedding node: %v, want its overload acks", i, err)
		}
		overloaded(fmt.Sprintf("put %d", i), acks)
	}
	for _, n := range lc.DNs {
		if blocks := n.Node().StoredBlocks(); len(blocks) != 0 {
			t.Fatalf("a shed stream stored blocks %v", blocks)
		}
	}
	requirePoolBalance(t, start)
}
