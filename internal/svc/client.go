package svc

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/stats"
)

// Client is the shell-style client for a networked cluster. Metadata
// operations are typed wrappers over the nn.* RPCs, each one exchange
// on a connection parked to the NameNode; file bytes never take that
// road. A put asks the NameNode where (nn.allocate), streams each
// block down a v2 pipeline to the DataNodes itself, and reports the
// outcome (nn.complete); a get asks where (nn.locate) and reads each block
// from a DataNode itself — the NameNode decides, the client moves
// bytes, as HDFS and the paper's prototype (§IV) do. The write loop and
// the read ladder are dfs.BlockIO's, the same code the NameNode runs
// for repair and redistribution, over the client's own DataNode proxies, so
// breakers and hedges act where the latency is observed. Errors arrive
// rehydrated, so errors.Is against the dfs sentinels and
// dfs.IsTransient behave exactly as in-process.
type Client struct {
	nn    string     // the NameNode's address
	conns streamPool // to the NameNode; the DataNode proxies have their own

	mu   sync.Mutex // guards data
	data *dataPath  // built on the first put or get
}

// dataPath is a client's own way to the DataNodes: one proxy per node
// and the block mover over them.
type dataPath struct {
	stores   []*remoteStore
	io       *dfs.BlockIO
	brkStats *BreakerStats
}

// Dial creates a client for the NameNode at addr. name is this
// client's endpoint name for the fault hook ("shell" is conventional);
// faults may be nil. Connections — to the NameNode and, for puts and
// gets, to the DataNodes it names — are established lazily.
func Dial(addr, name string, faults TransportFaults) *Client {
	return &Client{nn: addr, conns: streamPool{local: name, faults: faults}}
}

// call performs one nn.* RPC.
func (c *Client) call(ctx context.Context, method string, params wireValue, result valueReader) error {
	return c.conns.call(ctx, c.nn, "namenode", method, params, result)
}

// Close tears down the parked connections — to the NameNode and to the
// DataNodes; the client may be reused (calls and streams redial).
func (c *Client) Close() {
	c.conns.close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data != nil {
		for _, st := range c.data.stores {
			st.close()
		}
	}
}

// dataPathFor returns the client's DataNode proxies, building them on
// first use from one nn.cluster reply: the DataNode addresses and the
// breaker and hedge settings the NameNode runs with. Breaker probe
// jitter is seeded from the endpoint name, so a client's probe
// schedule replays under the same name.
func (c *Client) dataPathFor(ctx context.Context) (*dataPath, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data != nil {
		return c.data, nil
	}
	var info clusterResult
	if err := c.call(ctx, "nn.cluster", nil, &info); err != nil {
		return nil, err
	}
	stores, ifaces, brkStats := newStoreFleet(info.DataNodes, c.conns.local, c.conns.faults, info.Breaker, stats.NewRNG(stats.HashLabel(c.conns.local)))
	dp := &dataPath{stores: stores, io: dfs.NewBlockIO(ifaces), brkStats: brkStats}
	if info.HedgeReads {
		if err := dp.io.SetHedge(info.Hedge); err != nil {
			return nil, err
		}
	}
	c.data = dp
	return dp, nil
}

// adopt replaces the proxies' liveness belief with the NameNode's,
// fresh from an allocate or locate reply. A proxy marked down by a
// transport error has no heartbeat to revive it; the NameNode's next
// answer is its heartbeat. Breaker state is not touched: an open
// breaker keeps fast-failing and recovers through its own probe.
func (dp *dataPath) adopt(down []cluster.NodeID) {
	for _, st := range dp.stores {
		st.SetUp(!slices.Contains(down, st.id))
	}
}

// CopyFromLocal stores data as a new file, with the ADAPT distributor
// when useAdapt is set, returning the metadata and the write report.
// A put whose lease the NameNode no longer knows (it expired, or the
// NameNode restarted between allocate and complete) starts over with a
// fresh allocation.
func (c *Client) CopyFromLocal(ctx context.Context, name string, data []byte, useAdapt bool) (*dfs.FileMeta, dfs.WriteReport, error) {
	dp, err := c.dataPathFor(ctx)
	if err != nil {
		return nil, dfs.WriteReport{}, err
	}
	for attempt := 1; ; attempt++ {
		alloc, err := c.allocate(ctx, dp, name, int64(len(data)), useAdapt)
		if err != nil {
			return nil, dfs.WriteReport{}, err
		}
		fm, report, err := c.store(ctx, dp, alloc, data)
		if !errors.Is(err, dfs.ErrLeaseExpired) || attempt >= clientRetry.MaxAttempts || ctx.Err() != nil {
			return fm, report, err
		}
	}
}

// clientRetry bounds the client's block I/O exactly as the NameNode's
// engine client bounds its own.
var clientRetry = dfs.DefaultRetryPolicy()

// store streams data where alloc says and completes the file. A store
// that fails after bytes moved deletes what it wrote, best effort;
// whatever it cannot reach or may no longer claim is unreferenced, and
// the NameNode's repair scan collects it once the lease is out.
func (c *Client) store(ctx context.Context, dp *dataPath, alloc *dfs.Allocation, data []byte) (*dfs.FileMeta, dfs.WriteReport, error) {
	var report dfs.WriteReport
	blocks, err := dp.io.WriteBlocks(ctx, alloc, bytes.NewReader(data), clientRetry, &report)
	if err != nil {
		return nil, report, err
	}
	fm, err := c.complete(ctx, alloc.Name, blocks, report)
	if err != nil {
		// Only a refusal the NameNode itself sent proves the file was
		// not published. A complete lost on the wire may have been
		// journaled: its replicas stay, and the repair scan decides. So it
		// does for a lease the NameNode no longer knows: the client has
		// lost the only proof that those ids are its own, and a delete by
		// bare id is not something to send on a guess.
		var refused *RemoteError
		if errors.As(err, &refused) && !errors.Is(err, dfs.ErrLeaseExpired) {
			dp.io.DeleteBlocks(ctx, blocks)
		}
		return nil, report, err
	}
	return fm, report, nil
}

// allocate is nn.allocate: block ids and the availability-weighted
// chains for a file of size bytes, leased to name for what is left of
// ctx's deadline.
func (c *Client) allocate(ctx context.Context, dp *dataPath, name string, size int64, useAdapt bool) (*dfs.Allocation, error) {
	var res allocateResult
	if err := c.call(ctx, "nn.allocate", allocateParams{Name: name, Size: size, Adapt: useAdapt}, &res); err != nil {
		return nil, err
	}
	dp.adopt(res.Down)
	return &res.Alloc, nil
}

// complete is nn.complete: publish the file whose blocks landed on the
// reported holders.
func (c *Client) complete(ctx context.Context, name string, blocks []dfs.BlockMeta, report dfs.WriteReport) (*dfs.FileMeta, error) {
	var fm dfs.FileMeta
	if err := c.call(ctx, "nn.complete", completeParams{Name: name, Blocks: blocks, Report: report}, (*fileMeta)(&fm)); err != nil {
		return nil, err
	}
	return &fm, nil
}

// ReadFile reads a whole file back: nn.locate for the block map, then
// every block from the DataNodes directly with replica failover (or
// hedging), checksum verification and bounded retry.
func (c *Client) ReadFile(ctx context.Context, name string) ([]byte, error) {
	dp, err := c.dataPathFor(ctx)
	if err != nil {
		return nil, err
	}
	return dp.io.ReadFile(ctx, name, func(ctx context.Context) (*dfs.FileMeta, error) {
		var res locateResult
		if err := c.call(ctx, "nn.locate", nameParams{Name: name}, &res); err != nil {
			return nil, err
		}
		dp.adopt(res.Down)
		return &res.Meta, nil
	}, clientRetry)
}

// Stat returns a file's metadata.
func (c *Client) Stat(ctx context.Context, name string) (*dfs.FileMeta, error) {
	var fm dfs.FileMeta
	if err := c.call(ctx, "nn.stat", nameParams{Name: name}, (*fileMeta)(&fm)); err != nil {
		return nil, err
	}
	return &fm, nil
}

// List returns all file names.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var res listResult
	if err := c.call(ctx, "nn.list", nil, &res); err != nil {
		return nil, err
	}
	return res.Files, nil
}

// Delete removes a file.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.call(ctx, "nn.delete", nameParams{Name: name}, nil)
}

// Adapt reshapes an existing file's placement with the
// availability-aware distributor (the paper's new shell command),
// returning how many replicas moved.
func (c *Client) Adapt(ctx context.Context, name string) (int, error) {
	var res movedResult
	if err := c.call(ctx, "nn.adapt", nameParams{Name: name}, &res); err != nil {
		return 0, err
	}
	return res.Moved, nil
}

// Rebalance reshapes an existing file's placement with the stock
// random distributor (the HDFS-rebalance analogue).
func (c *Client) Rebalance(ctx context.Context, name string) (int, error) {
	var res movedResult
	if err := c.call(ctx, "nn.rebalance", nameParams{Name: name}, &res); err != nil {
		return 0, err
	}
	return res.Moved, nil
}

// BlockDistribution returns the per-node replica counts for a file.
func (c *Client) BlockDistribution(ctx context.Context, name string) ([]int, error) {
	var res distResult
	if err := c.call(ctx, "nn.dist", nameParams{Name: name}, &res); err != nil {
		return nil, err
	}
	return res.Counts, nil
}

// Estimates returns the NameNode's current per-node (λ, μ) estimates,
// as folded from heartbeats.
func (c *Client) Estimates(ctx context.Context) (map[cluster.NodeID]model.Availability, error) {
	var res estimatesResult
	if err := c.call(ctx, "nn.estimates", nil, &res); err != nil {
		return nil, err
	}
	return res.Estimates, nil
}

// CheckConsistency asks the NameNode to verify every live replica's
// bits against block checksums.
func (c *Client) CheckConsistency(ctx context.Context) error {
	return c.call(ctx, "nn.consistency", nil, nil)
}

// Fsck returns the NameNode's replication-health survey: per-block
// live-replica counts against each file's target, by the NameNode's
// current liveness belief.
func (c *Client) Fsck(ctx context.Context) (dfs.HealthReport, error) {
	var rep healthReport
	err := c.call(ctx, "nn.fsck", nil, &rep)
	return dfs.HealthReport(rep), err
}
