package dfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/stats"
)

// BlockIO is the byte-moving half of the file system: given block ids
// and holders somebody else decided, it writes replicas and reads them
// back (replica failover or hedging, CRC32C verification). Every
// replica written — a create's, an adapt's or rebalance's, a repair's —
// goes through one write step: putPlaced (pipeline fast path, then
// direct retries) and putOne (one direct put, which diverts and repairs
// use). It knows nothing of names, quotas or journals, so whoever holds
// the bytes owns one: the NameNode for what it moves itself (cp, adapt,
// rebalance, repair, in-process clients), and every networked client
// for its own puts and gets — HDFS's split, where the NameNode decides
// and the client moves bytes.
type BlockIO struct {
	stores   []BlockStore
	counters *metrics.ResilienceCounters

	// hedge, when non-nil, is the hedged-read latency tracker; loaded
	// lock-free on the block read path. See hedge.go.
	hedge atomic.Pointer[hedger]
}

// NewBlockIO builds the block mover over one store per cluster node,
// in node-id order.
func NewBlockIO(stores []BlockStore) *BlockIO {
	return &BlockIO{stores: stores, counters: &metrics.ResilienceCounters{}}
}

// Resilience returns the retry/failover/hedge counters this mover
// reports into.
func (b *BlockIO) Resilience() *metrics.ResilienceCounters { return b.counters }

// AllocatedBlock is one block of an Allocation: the id the NameNode
// minted and the holders the placement policy drew, in chain order.
type AllocatedBlock struct {
	ID      BlockID
	Holders []cluster.NodeID
}

// Allocation is the NameNode's decision for one create: every block id
// and every placement draw, made before a byte moves. The writer
// streams the blocks where it says and hands the outcome back to
// NameNode.Complete, which accepts only block ids it leased here.
type Allocation struct {
	Name        string
	Size        int64
	BlockSize   int64
	Replication int
	Blocks      []AllocatedBlock
	// Seed drives the writer's rotation over alternate nodes when a
	// placed holder refuses its replica; it comes from the placement
	// stream, so degraded writes stay a function of the seed. A
	// fault-free write never draws from it.
	Seed uint64
}

// blockCount is how many blocks of blockSize hold size bytes; an empty
// file still gets one (empty) block. It never adds to size, which may
// have come off the wire as anything up to MaxInt64.
func blockCount(size, blockSize int64) int64 {
	return max(1, size/blockSize+min(1, size%blockSize))
}

// blockSpan returns the byte range of block i.
func (a *Allocation) blockSpan(i int) (lo, hi int64) {
	lo = int64(i) * a.BlockSize
	hi = lo + a.BlockSize
	if hi > a.Size {
		hi = a.Size
	}
	return lo, hi
}

// WriteBlocks streams a.Size bytes from r onto the allocation's
// holders, one block at a time through one reused buffer, so memory
// stays at one block regardless of file size. It returns the block map
// to hand to Complete.
//
// Writes are failure-aware: a placed holder that rejects its replica
// (down node or injected fault) is replaced by an alternate live node;
// blocks that still end up below target replication are recorded as
// degraded in report (and left for MaintainReplication to heal) rather
// than failing the write. Only a block no live node accepts — or a
// source that ends early — fails it, after bounded backoff-retry; the
// replicas written for earlier blocks are then deleted so nothing
// leaks.
func (b *BlockIO) WriteBlocks(ctx context.Context, a *Allocation, r io.Reader, retry RetryPolicy, report *WriteReport) ([]BlockMeta, error) {
	if err := b.checkAllocation(a); err != nil {
		return nil, err
	}
	if report != nil {
		*report = WriteReport{TargetReplication: a.Replication}
	}
	g := stats.NewRNG(a.Seed)
	blocks := make([]BlockMeta, 0, len(a.Blocks))
	// Every consumer of chunk (local puts, pipeline streaming) copies
	// or sends before returning, so the next block may reuse buf, and
	// the next file may once this one is written.
	buf := NewReplicaBuf(int(min(a.BlockSize, a.Size)))
	defer RecycleReplicaBuf(buf)
	for i, ab := range a.Blocks {
		lo, hi := a.blockSpan(i)
		var chunk []byte
		if lo < hi {
			chunk = buf[:hi-lo]
			if _, err := io.ReadFull(r, chunk); err != nil {
				b.DeleteBlocks(ctx, blocks)
				return nil, fmt.Errorf("dfs: create %q block %d: source ended early: %w", a.Name, i, err)
			}
		}
		placed, sum, err := b.writeBlockReplicas(ctx, ab.ID, chunk, ab.Holders, a.Replication, g, retry, report)
		if err != nil {
			b.DeleteBlocks(ctx, blocks)
			return nil, fmt.Errorf("dfs: create %q block %d: %w", a.Name, i, err)
		}
		if len(placed) < a.Replication {
			b.counters.DegradedWrites.Add(1)
		}
		if report != nil {
			report.Blocks++
			if report.Blocks == 1 || len(placed) < report.MinReplication {
				report.MinReplication = len(placed)
			}
			if len(placed) < a.Replication {
				report.DegradedBlocks++
			}
		}
		blocks = append(blocks, BlockMeta{
			ID: ab.ID, File: a.Name, Index: i, Size: hi - lo,
			Replicas: placed, Checksum: sum,
		})
	}
	return blocks, nil
}

// checkAllocation rejects an allocation this mover cannot carry out. A
// networked writer's allocation arrived over the wire, so its shape is
// checked before anything is indexed by it.
func (b *BlockIO) checkAllocation(a *Allocation) error {
	if a.BlockSize <= 0 || a.Size < 0 {
		return fmt.Errorf("%w: allocation of %d bytes in blocks of %d", ErrBadBlockSize, a.Size, a.BlockSize)
	}
	if a.Replication < 1 {
		return fmt.Errorf("%w: %d", ErrBadReplication, a.Replication)
	}
	if want := blockCount(a.Size, a.BlockSize); int64(len(a.Blocks)) != want {
		return fmt.Errorf("%w: allocation of %d blocks for a %d-block file", ErrInconsistent, len(a.Blocks), want)
	}
	for _, ab := range a.Blocks {
		for _, h := range ab.Holders {
			if int(h) < 0 || int(h) >= len(b.stores) {
				return fmt.Errorf("%w: block %d placed on node %d", ErrUnknownNode, ab.ID, h)
			}
		}
	}
	return nil
}

// refusals tallies why the stores that were asked turned one block
// down, so a block nobody served can say whether the cluster is broken
// or only busy. A down node says nothing about the live ones and is not
// counted.
type refusals struct{ shed, other int }

func (r *refusals) note(err error) {
	switch {
	case errors.Is(err, ErrOverload):
		r.shed++
	case !errors.Is(err, ErrNodeDown):
		r.other++
	}
}

// overloaded reports that every node that answered shed the request:
// the caller gets ErrOverload, the same typed, fail-fast refusal the
// metadata service gives, and owns the backoff — BlockIO does not retry
// into a saturated cluster.
func (r refusals) overloaded() bool { return r.shed > 0 && r.other == 0 }

// unwindBudget bounds one batch of DeleteBlocks deletes. They run
// detached from the caller's context — which has usually just expired
// or been cancelled — so they need a bound of their own, or a holder
// that stopped answering would pin the caller (and whatever lock it
// holds).
const unwindBudget = 2 * time.Second

// DeleteBlocks best-effort deletes every listed replica — the unwind
// of a write that cannot complete, or of a redistribution's fresh
// copies, and the prune of the replicas a redistribution retired —
// detached from ctx's cancellation and bounded by unwindBudget. A
// holder that cannot be reached in time keeps an unreferenced copy,
// never live metadata; once no lease covers it, ScrubOrphans collects
// it.
func (b *BlockIO) DeleteBlocks(ctx context.Context, blocks []BlockMeta) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), unwindBudget)
	defer cancel()
	for _, bm := range blocks {
		for _, r := range bm.Replicas {
			_ = b.stores[r].Delete(ctx, bm.ID)
		}
	}
}

// writeBlockReplicas stores one block on up to k nodes and returns the
// holders that took it with the block's CRC32C. Each attempt is one
// putPlaced over the placed holders, then a putOne for each alternate
// live node a divert needs; none is asked once ctx is done. With zero
// holders it waits out the retry policy's backoff (nodes may rejoin)
// before giving up with ErrNoLiveNodes — unless the nodes are there and
// shed the write, which is ErrOverload at once.
func (b *BlockIO) writeBlockReplicas(ctx context.Context, id BlockID, chunk []byte, want []cluster.NodeID, k int, g *stats.RNG, retry RetryPolicy, report *WriteReport) ([]cluster.NodeID, uint32, error) {
	for attempt := 1; ; attempt++ {
		p := blockPut{id: id, data: chunk}
		b.putPlaced(ctx, &p, want, k)
		// Divert missing replicas to alternate live nodes, visited in
		// a random rotation so degraded writes spread load.
		if len(p.placed) < k {
			n := len(b.stores)
			start := g.IntN(n)
			for off := 0; off < n && len(p.placed) < k; off++ {
				h := cluster.NodeID((start + off) % n)
				if !slices.Contains(want, h) && b.stores[h].Up() && b.putOne(ctx, &p, h) {
					b.counters.WriteFailovers.Add(1)
					if report != nil {
						report.Failovers++
					}
				}
			}
		}
		if len(p.placed) > 0 {
			return p.placed, p.sum, nil
		}
		if p.refused.overloaded() {
			return nil, 0, fmt.Errorf("%w: block %d shed by every datanode that answered", ErrOverload, id)
		}
		if attempt >= retry.attempts() && ctx.Err() == nil {
			return nil, 0, fmt.Errorf("%w: block %d (%d attempts)", ErrNoLiveNodes, id, attempt)
		}
		// A done ctx ends the wait at once, with its error.
		if err := retry.wait(ctx, attempt); err != nil {
			return nil, 0, fmt.Errorf("dfs: write of block %d interrupted: %w", id, err)
		}
		b.counters.WriteRetries.Add(1)
		if report != nil {
			report.Retries++
		}
	}
}

// blockPut is one block on its way to its holders: what putPlaced and
// putOne store, and what they learn doing so.
type blockPut struct {
	id   BlockID
	data []byte
	// sum is the block's CRC32C once summed is set: reported by the
	// first store that took the block, or given by a caller whose read
	// has just verified the bytes against it. An in-process store keeps
	// it rather than summing the bytes again.
	sum    uint32
	summed bool
	// placed lists the nodes holding the block: any the caller starts
	// it with, then each that took it, in the order it did.
	placed  []cluster.NodeID
	refused refusals
	err     error // the last refusal, or ctx's error once it is done
}

// putPlaced stores the block on targets, up to k replicas. When the
// first live target can stream a replication chain, one pipeline covers
// every live target; the chain carries only nodes currently believed
// up, since a down-believed (or breaker-opened) one would stall or
// sever the stream for every healthy node behind it. Then each target
// the pipeline did not ack gets one direct putOne, in target order: a
// severed chain fails every deeper hop collaterally, so a mid-chain
// partition degrades the write no further than fan-out would, and a
// down-believed target still gets its fast-failing probe.
func (b *BlockIO) putPlaced(ctx context.Context, p *blockPut, targets []cluster.NodeID, k int) {
	up := func(h cluster.NodeID) bool { return b.stores[h].Up() }
	if head := slices.IndexFunc(targets, up); head >= 0 && ctx.Err() == nil {
		if pp, ok := b.stores[targets[head]].(PipelinePutter); ok {
			rest := slices.DeleteFunc(slices.Clone(targets[head+1:]), func(h cluster.NodeID) bool { return !up(h) })
			res := pp.PutChain(ctx, p.id, p.data, rest)
			if len(res.Acked) > 0 && !p.summed {
				p.sum, p.summed = res.Sum, true
			}
			p.placed = append(p.placed, res.Acked...)
		}
	}
	for i, h := range targets {
		if len(p.placed) >= k {
			return
		}
		if !slices.Contains(p.placed, h) && !slices.Contains(targets[:i], h) {
			b.putOne(ctx, p, h)
		}
	}
}

// putOne stores the block on node h with one direct put, unless ctx is
// done, and reports whether h took it. A refusal is counted
// (NodeDownErrors for a down node) and noted in p.
func (b *BlockIO) putOne(ctx context.Context, p *blockPut, h cluster.NodeID) bool {
	if err := ctx.Err(); err != nil {
		p.err = err
		return false
	}
	var sum uint32
	var err error
	if ls, ok := b.stores[h].(localStore); ok && p.summed {
		err = ls.putSummed(ctx, p.id, p.data, p.sum)
	} else if sum, err = b.stores[h].Put(ctx, p.id, p.data); err == nil && !p.summed {
		p.sum, p.summed = sum, true
	}
	if err != nil {
		if errors.Is(err, ErrNodeDown) {
			b.counters.NodeDownErrors.Add(1)
		}
		p.refused.note(err)
		p.err = err
		return false
	}
	p.placed = append(p.placed, h)
	return true
}

// ReadBlock fetches one block's bytes from any live replica, verifying
// the CRC32C checksum and failing over to the next replica on node
// failure, missing bytes, or corruption.
func (b *BlockIO) ReadBlock(ctx context.Context, bm BlockMeta) ([]byte, error) {
	return b.appendBlock(ctx, bm, nil)
}

// appendBlock is ReadBlock appending the block to dst. It is the one
// replica ladder: each step fetches one live replica on the caller's
// goroutine into dst's spare capacity and verifies it, so a verified
// block lands where it belongs with no further copy, and a failure
// leaves dst as it was for the next step. Liveness is checked at each
// step, and the ladder stops once ctx is done. With hedging on a step
// may also start the block's one backup (fetchHedged); the replica
// that backup fetched is not fetched again.
func (b *BlockIO) appendBlock(ctx context.Context, bm BlockMeta, dst []byte) ([]byte, error) {
	for _, r := range bm.Replicas {
		if int(r) < 0 || int(r) >= len(b.stores) {
			return nil, fmt.Errorf("%w: block %d names node %d", ErrUnknownNode, bm.ID, r)
		}
	}
	h := b.hedge.Load()
	var lastErr error
	var refused refusals
	fail := func(err error) {
		b.noteReadFailure(err)
		refused.note(err)
		lastErr = err
	}
	backedUp := -1 // the index of the replica the backup fetched, once one has
	attempted := 0
	for i, r := range bm.Replicas {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		if i == backedUp || !b.stores[r].Up() {
			continue
		}
		if attempted > 0 {
			b.counters.ReadFailovers.Add(1)
		}
		attempted++
		if h == nil {
			data, err := b.fetch(ctx, bm, r, dst)
			if err == nil {
				return data, nil
			}
			fail(err)
			continue
		}
		data, bk, err := b.fetchHedged(ctx, h, bm, i, dst, backedUp < 0)
		if err == nil {
			return data, nil
		}
		fail(err)
		if bk != nil {
			backedUp = bk.index
			fail(bk.err)
		}
	}
	return nil, noReplica(bm, refused, lastErr)
}

// fetch reads replica r of bm, appending it to into, and verifies it
// against the block's checksum.
func (b *BlockIO) fetch(ctx context.Context, bm BlockMeta, r cluster.NodeID, into []byte) ([]byte, error) {
	got, err := b.stores[r].Get(ctx, bm.ID, into)
	if err == nil && got.Sum != bm.Checksum {
		err = fmt.Errorf("%w: block %d replica on node %d", ErrChecksum, bm.ID, r)
	}
	return got.Data, err
}

// noteReadFailure counts a replica read that failed: a down node, or
// bytes that failed a checksum, on the wire or against the block's.
func (b *BlockIO) noteReadFailure(err error) {
	switch {
	case errors.Is(err, ErrNodeDown):
		b.counters.NodeDownErrors.Add(1)
	case errors.Is(err, ErrChecksum):
		b.counters.ChecksumFailures.Add(1)
	}
}

// noReplica is the error of a block no replica served: ErrOverload when
// the replicas are there and shed the read, ErrNoReplica otherwise.
func noReplica(bm BlockMeta, refused refusals, lastErr error) error {
	switch {
	case refused.overloaded():
		return fmt.Errorf("%w: block %d of %q shed by every replica that answered", ErrOverload, bm.ID, bm.File)
	case lastErr != nil:
		return fmt.Errorf("%w: block %d of %q (last error: %v)", ErrNoReplica, bm.ID, bm.File, lastErr)
	}
	return fmt.Errorf("%w: block %d of %q", ErrNoReplica, bm.ID, bm.File)
}

// ReadFile reassembles a whole file: locate supplies the block map,
// each block goes through ReadBlock, and a transient block failure
// retries the whole file with backoff — calling locate again, so
// repairs and redistributions done meanwhile are picked up. A locate
// error is returned as is: it is the metadata service's answer, not a
// replica that may come back; so is a block the DataNodes shed
// (ErrOverload), whose backoff is the caller's. When ctx ends a backoff early its error
// is returned wrapped, so callers distinguish "retries exhausted" from
// "deadline exceeded".
func (b *BlockIO) ReadFile(ctx context.Context, name string, locate func(context.Context) (*FileMeta, error), retry RetryPolicy) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		fm, err := locate(ctx)
		if err != nil {
			return nil, err
		}
		data, err := b.readBlocks(ctx, fm)
		if err == nil {
			return data, nil
		}
		if !IsTransient(err) || errors.Is(err, ErrOverload) || attempt >= retry.attempts() {
			return nil, err
		}
		if werr := retry.wait(ctx, attempt); werr != nil {
			return nil, fmt.Errorf("dfs: read %q interrupted: %w (last error: %v)", name, werr, err)
		}
		b.counters.ReadRetries.Add(1)
	}
}

// readBlocks allocates the file once, at the size the block map
// states, and reads every block into its place.
func (b *BlockIO) readBlocks(ctx context.Context, fm *FileMeta) ([]byte, error) {
	if err := checkFileMeta(fm); err != nil {
		return nil, err
	}
	file := make([]byte, 0, fm.Size)
	for _, bm := range fm.Blocks {
		var err error
		if file, err = b.appendBlock(ctx, bm, file); err != nil {
			return nil, err
		}
	}
	return file, nil
}

// checkFileMeta refuses a block map whose sizes do not add up, before
// anything is allocated from them: a networked reader's FileMeta came
// off the wire.
func checkFileMeta(fm *FileMeta) error {
	if fm.Size < 0 || len(fm.Blocks) > MaxFileBlocks {
		return fmt.Errorf("%w: %q claims %d bytes in %d blocks", ErrInconsistent, fm.Name, fm.Size, len(fm.Blocks))
	}
	left := fm.Size
	for i, bm := range fm.Blocks {
		if bm.Size < 0 || bm.Size > left {
			return fmt.Errorf("%w: %q block %d claims %d bytes of a %d-byte file", ErrInconsistent, fm.Name, i, bm.Size, fm.Size)
		}
		left -= bm.Size
	}
	if left != 0 {
		return fmt.Errorf("%w: %q claims %d bytes, its blocks hold %d", ErrInconsistent, fm.Name, fm.Size, fm.Size-left)
	}
	return nil
}
