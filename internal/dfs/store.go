package dfs

import (
	"context"

	"github.com/adaptsim/adapt/internal/cluster"
)

// BlockStore is the NameNode's view of one node's block storage. The
// in-process *DataNode satisfies it through localStore; the networked
// layer (internal/svc) substitutes an RPC proxy so the same engine —
// BlockIO's write loop and read ladder, redistribute, repair — drives
// remote DataNodes over TCP without knowing the difference.
//
// Error contract: implementations must surface "the node is not
// serving" conditions (down, unreachable, partitioned) as errors
// wrapping ErrNodeDown so the failover and retry machinery classifies
// them; permanent conditions use the other dfs sentinels.
type BlockStore interface {
	// Up reports whether the store is believed to be serving. For a
	// remote store this is the NameNode's liveness belief (heartbeat
	// freshness), not ground truth: operations may still fail with
	// ErrNodeDown, and the caller must fail over.
	Up() bool
	// SetUp flips the liveness belief — the chaos engine's hook for
	// local stores, the heartbeat tracker's for remote ones.
	SetUp(up bool)
	// Put stores one block replica.
	Put(ctx context.Context, id BlockID, data []byte) error
	// Get reads one block replica and appends it to dst, returning the
	// extended slice. A block that fits dst's spare capacity is read
	// into it in place, so bytes past len(dst) may have been written
	// even when Get fails; dst[:len(dst)] never is.
	Get(ctx context.Context, id BlockID, dst []byte) ([]byte, error)
	// Delete removes a block replica. Deletes are metadata-driven and
	// best-effort (HDFS's lazy invalidation); an error means the
	// replica may survive as surplus, never that data was lost.
	Delete(ctx context.Context, id BlockID) error
	// StoredSum returns the size and CRC32 (IEEE) of the bytes the
	// store holds for a block regardless of up state and without fault
	// injection — the "bits on disk" view used by consistency
	// verification, computed where the bytes are. ok is false when the
	// block is absent or the store is unreachable.
	StoredSum(ctx context.Context, id BlockID) (size int64, sum uint32, ok bool)
	// StoredBlocks returns the ids of every block the store holds — the
	// inventory ScrubOrphans diffs against metadata. ok is false when
	// the inventory is unavailable (node unreachable); the caller must
	// then skip the node rather than assume it is empty.
	StoredBlocks(ctx context.Context) (ids []BlockID, ok bool)
}

// PipelineResult reports the per-node outcome of one pipeline write:
// Acked lists the chain nodes that committed the replica, in chain
// order; Failed maps each node that did not to its error, per the
// BlockStore contract (unreachable wraps ErrNodeDown), so the engine
// classifies pipeline failures exactly like fan-out failures.
type PipelineResult struct {
	Acked  []cluster.NodeID
	Failed map[cluster.NodeID]error
}

// PipelinePutter is an optional BlockStore capability: a store that
// can stream one block onward through a replication chain — HDFS-style
// client → DN1 → DN2 → DN3 pipelining — implements it. PutChain
// stores the block on this node and on rest (in order). Stores without
// it (the in-memory DataNode) get per-store fan-out Puts.
type PipelinePutter interface {
	PutChain(ctx context.Context, id BlockID, data []byte, rest []cluster.NodeID) PipelineResult
}

// localStore adapts the in-process *DataNode to BlockStore. The
// context is honored only between operations (in-memory calls are
// instantaneous); remote stores honor it as an RPC deadline.
type localStore struct{ dn *DataNode }

func (s localStore) Up() bool      { return s.dn.Up() }
func (s localStore) SetUp(up bool) { s.dn.SetUp(up) }

func (s localStore) Put(ctx context.Context, id BlockID, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.dn.Put(id, data)
}

func (s localStore) Get(ctx context.Context, id BlockID, dst []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, release, err := s.dn.View(id)
	if err != nil {
		return nil, err
	}
	defer release()
	return append(dst, data...), nil
}

func (s localStore) Delete(ctx context.Context, id BlockID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.dn.Delete(id)
	return nil
}

func (s localStore) StoredSum(ctx context.Context, id BlockID) (int64, uint32, bool) {
	if ctx.Err() != nil {
		return 0, 0, false
	}
	return s.dn.StoredSum(id)
}

func (s localStore) StoredBlocks(ctx context.Context) ([]BlockID, bool) {
	if ctx.Err() != nil {
		return nil, false
	}
	return s.dn.StoredBlocks(), true
}

// Local exposes the wrapped DataNode; NameNode.DataNode uses it to
// keep the historical *DataNode accessor working on all-local
// clusters.
func (s localStore) Local() *DataNode { return s.dn }
