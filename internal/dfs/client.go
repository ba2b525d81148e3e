package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

// Client mirrors the prototype's HDFS shell surface (§IV-A): the
// natively-supported copyFromLocal and cp extended with an ADAPT
// enable flag, and the newly added adapt command that reshapes an
// existing file's placement, implemented like HDFS's rebalance.
//
// The client is failure-aware: reads verify checksums and fail over
// across replicas, transient errors (ErrNodeDown, ErrChecksum,
// ErrNoReplica — see IsTransient) are retried with bounded exponential
// backoff per Retry, and writes degrade gracefully to alternate live
// nodes, reporting the replication actually achieved.
//
// Every operation takes a context first, which bounds its total
// latency: backoff waits end early when the deadline passes and
// replica RPCs inherit the deadline, so a networked caller can cap
// tail latency. A context with no deadline keeps the count-based retry
// semantics. The client, not the NameNode, moves the bytes of what it
// reads; the NameNode answers only metadata (Locate).
type Client struct {
	nn *NameNode
	g  *stats.RNG

	// BlockSize used for new files (default 64 MB).
	BlockSize int64
	// Replication used for new files (default 1, as in the paper's
	// storage-efficiency argument; HDFS itself defaults to 3).
	Replication int
	// Retry bounds how transient failures are retried
	// (DefaultRetryPolicy unless overridden).
	Retry RetryPolicy
}

// NewClient builds a client over a NameNode. The RNG drives placement
// randomness (both stock and ADAPT placement are randomized).
func NewClient(nn *NameNode, g *stats.RNG) (*Client, error) {
	if nn == nil {
		return nil, ErrNoNameNode
	}
	if g == nil {
		return nil, placement.ErrNilRNG
	}
	return &Client{
		nn:          nn,
		g:           g,
		BlockSize:   DefaultBlockSize,
		Replication: 1,
		Retry:       DefaultRetryPolicy(),
	}, nil
}

// defaultGamma is the paper's failure-free task time per 64 MB block,
// the task length the performance predictor's 1/E[T] weights are
// evaluated at.
const defaultGamma = 12

// policy returns the block distributor for the requested mode: stock
// random placement, or ADAPT weights from the performance predictor.
// Either reads the one availability snapshot loaded here.
func (c *Client) policy(useAdapt bool) (placement.Policy, error) {
	cl := c.nn.Cluster()
	if !useAdapt {
		return &placement.Random{Cluster: cl}, nil
	}
	return placement.NewAdapt(cl, defaultGamma)
}

// CopyFromLocalReportContext stores data as a new file. useAdapt
// selects the availability-aware distributor (the prototype's extra
// shell flag). The WriteReport describes the replication achieved
// under failures: holders that rejected the write are replaced by
// alternate live nodes, and blocks below target replication are
// reported as degraded instead of failing the copy.
func (c *Client) CopyFromLocalReportContext(ctx context.Context, name string, data []byte, useAdapt bool) (*FileMeta, WriteReport, error) {
	var report WriteReport
	pol, err := c.policy(useAdapt)
	if err != nil {
		return nil, report, err
	}
	fm, err := c.nn.createFile(ctx, name, bytes.NewReader(data), int64(len(data)), c.BlockSize, c.Replication, pol, c.g.Split(), c.Retry, &report)
	return fm, report, err
}

// Allocate is step one of a create on behalf of a writer that moves
// the bytes itself (a networked client): the NameNode's decision —
// block ids and placement draws with this client's block size,
// replication and RNG — leased to name until ctx's deadline. The
// writer streams the blocks through its own BlockIO and reports them
// to NameNode.Complete.
func (c *Client) Allocate(ctx context.Context, name string, size int64, useAdapt bool) (*Allocation, error) {
	pol, err := c.policy(useAdapt)
	if err != nil {
		return nil, err
	}
	return c.nn.allocate(ctx, name, size, c.BlockSize, c.Replication, pol, c.g.Split())
}

// Cp copies an existing file to a new name, placing the copy's blocks
// with the selected distributor.
func (c *Client) Cp(ctx context.Context, src, dst string, useAdapt bool) (*FileMeta, error) {
	data, err := c.ReadFileContext(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("dfs: cp %q: %w", src, err)
	}
	srcMeta, err := c.nn.Stat(src)
	if err != nil {
		return nil, err
	}
	pol, err := c.policy(useAdapt)
	if err != nil {
		return nil, err
	}
	return c.nn.createFile(ctx, dst, bytes.NewReader(data), int64(len(data)), srcMeta.BlockSize, srcMeta.Replication, pol, c.g.Split(), c.Retry, nil)
}

// ReadFileContext reads a whole file back, failing over across
// replicas within each block and retrying transient whole-file
// failures with backoff, re-fetching metadata (Locate) between
// attempts so repairs and redistributions done meanwhile are picked
// up. Backoff waits are cut short at ctx's deadline and the context
// error is returned wrapped, so callers distinguish "retries
// exhausted" from "deadline exceeded".
func (c *Client) ReadFileContext(ctx context.Context, name string) ([]byte, error) {
	return c.nn.io.ReadFile(ctx, name, func(context.Context) (*FileMeta, error) { return c.nn.Locate(name) }, c.Retry)
}

// readBlock reads one block with replica failover plus bounded retry
// on transient failure. Unlike ReadFileContext it works from the
// caller's BlockMeta snapshot, so it cannot see holders added after
// the stat. A block the replicas shed (ErrOverload) is returned at
// once, as ReadFile does: the caller owns that backoff.
func (c *Client) readBlock(ctx context.Context, bm BlockMeta) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		data, err := c.nn.io.ReadBlock(ctx, bm)
		if err == nil {
			return data, nil
		}
		if !IsTransient(err) || errors.Is(err, ErrOverload) || attempt >= c.Retry.attempts() {
			return nil, err
		}
		if werr := c.Retry.wait(ctx, attempt); werr != nil {
			return nil, fmt.Errorf("dfs: read of block %d interrupted: %w (last error: %v)", bm.ID, werr, err)
		}
		c.nn.io.counters.ReadRetries.Add(1)
	}
}

// Adapt is the new shell command: it redistributes the blocks of an
// existing file according to the availability-aware algorithm, moving
// only the replicas whose holder changed (analogous to the rebalance
// facility, §IV-B2). It returns the number of replicas moved.
func (c *Client) Adapt(ctx context.Context, name string) (int, error) {
	pol, err := c.policy(true)
	if err != nil {
		return 0, err
	}
	return c.redistribute(ctx, name, pol)
}

// Rebalance redistributes an existing file's blocks with the stock
// uniform policy — the baseline the adapt command is analogous to.
func (c *Client) Rebalance(ctx context.Context, name string) (int, error) {
	pol, err := c.policy(false)
	if err != nil {
		return 0, err
	}
	return c.redistribute(ctx, name, pol)
}

// redistribute moves an existing file's replicas onto the placement
// the policy chooses. It is crash-consistent: new replicas are fully
// written first, then the new block map is published, and only then
// are the old replicas pruned — so an operation that dies mid-flight
// (or hits a node failure it cannot work around) leaves the file
// readable from its previous locations, at worst with some surplus
// replicas for the maintenance pass to ignore. The whole operation
// holds the file's structural lock, serializing with Delete,
// MaintainReplication, and other redistributions of the same file.
func (c *Client) redistribute(ctx context.Context, name string, pol placement.Policy) (int, error) {
	unlock := c.nn.lockFile(name)
	defer unlock()

	fm, err := c.nn.Stat(name)
	if err != nil {
		return 0, err
	}
	placer, err := pol.NewPlacer(len(fm.Blocks), fm.Replication, c.g.Split())
	if err != nil {
		return 0, fmt.Errorf("dfs: adapt %q: %w", name, err)
	}

	// Phase 1: write every new replica. Nothing is deleted and the
	// block map is untouched, so any failure here aborts cleanly:
	// the copies made so far are removed (DeleteBlocks: detached from
	// ctx's cancellation, bounded by unwindBudget) and the file is
	// unchanged.
	var written []BlockMeta
	abort := func(cause error) (int, error) {
		c.nn.io.DeleteBlocks(ctx, written)
		return 0, cause
	}
	moved := 0
	newBlocks := make([]BlockMeta, len(fm.Blocks))
	var prune []BlockMeta
	for i, bm := range fm.Blocks {
		holders, err := placer.PlaceBlock(nil)
		if err != nil {
			return abort(fmt.Errorf("dfs: adapt %q block %d: %w", name, i, err))
		}
		var fresh []cluster.NodeID
		for _, h := range holders {
			if !slices.Contains(bm.Replicas, h) && !slices.Contains(fresh, h) {
				fresh = append(fresh, h)
			}
		}
		if len(fresh) > 0 {
			// The read verified the bytes against bm.Checksum, so the
			// write step is given the sum instead of taking it again.
			data, err := c.readBlock(ctx, bm)
			if err != nil {
				return abort(fmt.Errorf("dfs: adapt %q block %d: %w", name, i, err))
			}
			p := blockPut{id: bm.ID, data: data, sum: bm.Checksum, summed: true}
			c.nn.io.putPlaced(ctx, &p, fresh, len(fresh))
			written = append(written, BlockMeta{ID: bm.ID, Replicas: p.placed})
			if len(p.placed) < len(fresh) {
				return abort(fmt.Errorf("dfs: adapt %q block %d: %w", name, i, p.err))
			}
			moved += len(fresh)
		}
		var retired []cluster.NodeID
		for _, r := range bm.Replicas {
			if !slices.Contains(holders, r) {
				retired = append(retired, r)
			}
		}
		if len(retired) > 0 {
			prune = append(prune, BlockMeta{ID: bm.ID, Replicas: retired})
		}
		nb := bm
		nb.Replicas = holders
		newBlocks[i] = nb
	}

	// Phase 2: publish the new locations. Every new holder has the
	// bytes and every old holder still does, so the block map is
	// valid no matter where a crash lands. publishBlocks write-aheads
	// the new locations before swapping the block map; on failure the
	// file keeps its old (still fully valid) locations and the fresh
	// copies are removed. An ErrFileNotFound means the file was
	// deleted while we copied (before this operation took the file
	// lock a deletion cannot interleave; this guards the unlocked Stat
	// window) — drop our copies.
	if err := c.nn.publishBlocks(name, newBlocks); err != nil {
		if errors.Is(err, ErrFileNotFound) {
			err = fmt.Errorf("%w: %q (deleted during adapt)", ErrFileNotFound, name)
		}
		return abort(err)
	}

	// Phase 3: prune the replicas no longer referenced, through the
	// same bounded unwind as an abort. A failure or crash here leaks
	// surplus copies, never data.
	c.nn.io.DeleteBlocks(ctx, prune)
	c.nn.io.counters.RedistributedReplicas.Add(int64(moved))
	return moved, nil
}
