package dfs

import (
	"context"
	"fmt"

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
	// Put stores one block replica and reports the CRC32C of what it
	// stored, the sum a writer records in BlockMeta.Checksum.
	Put(ctx context.Context, id BlockID, data []byte) (sum uint32, err error)
	// Get reads one block replica and appends it to dst, returning the
	// extended slice with the CRC32C of the bytes it appended. A block
	// that fits dst's spare capacity is read into it in place, so bytes
	// past len(dst) may have been written even when Get fails;
	// dst[:len(dst)] never is. A replica whose bytes fail a chunk
	// checksum on the way is ErrChecksum.
	Get(ctx context.Context, id BlockID, dst []byte) (GetResult, error)
	// Delete removes a block replica. Deletes are metadata-driven and
	// best-effort (HDFS's lazy invalidation); an error means the
	// replica may survive as surplus, never that data was lost.
	Delete(ctx context.Context, id BlockID) error
	// StoredSum returns the size and CRC32C of the bytes the store
	// holds for a block regardless of up state and without fault
	// injection — the "bits on disk" view used by consistency
	// verification, summed over the bytes where they are. A block the
	// store does not hold is ErrBlockNotFound; a store that could not
	// be asked (unreachable, shedding) answers with a transient error
	// (ErrNodeDown, ErrOverload), which says nothing about the block.
	StoredSum(ctx context.Context, id BlockID) (size int64, sum uint32, err error)
	// StoredBlocks returns the ids of every block the store holds — the
	// inventory ScrubOrphans diffs against metadata. ok is false when
	// the inventory is unavailable (node unreachable); the caller must
	// then skip the node rather than assume it is empty.
	StoredBlocks(ctx context.Context) (ids []BlockID, ok bool)
}

// GetResult is what one Get read: Data is the caller's slice extended
// by the block, and Sum the CRC32C of the block's bytes, which the
// caller compares against BlockMeta.Checksum.
type GetResult struct {
	Data []byte
	Sum  uint32
}

// PipelineResult reports the per-node outcome of one pipeline write:
// Acked lists the chain nodes that committed the replica, in chain
// order; Failed maps each node that did not to its error, per the
// BlockStore contract (unreachable wraps ErrNodeDown), so the engine
// classifies pipeline failures exactly like fan-out failures. Sum is
// the CRC32C of the block the acked nodes stored, meaningful when one
// did.
type PipelineResult struct {
	Acked  []cluster.NodeID
	Failed map[cluster.NodeID]error
	Sum    uint32
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

func (s localStore) Put(ctx context.Context, id BlockID, data []byte) (uint32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.dn.put(id, data)
}

// putSummed is Put for a block whose CRC32C another replica already
// reported: the copy is not summed again.
func (s localStore) putSummed(ctx context.Context, id BlockID, data []byte, sum uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.dn.putSummed(id, data, sum)
}

// Get sums the bytes it appends: in process the reader and the
// DataNode are one endpoint, and the copy it sums may be a fault
// injector's.
func (s localStore) Get(ctx context.Context, id BlockID, dst []byte) (GetResult, error) {
	if err := ctx.Err(); err != nil {
		return GetResult{}, err
	}
	data, _, release, err := s.dn.View(id)
	if err != nil {
		return GetResult{}, err
	}
	defer release()
	return GetResult{Data: append(dst, data...), Sum: Checksum(data)}, nil
}

func (s localStore) Delete(ctx context.Context, id BlockID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.dn.Delete(id)
	return nil
}

func (s localStore) StoredSum(ctx context.Context, id BlockID) (int64, uint32, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	size, sum, ok := s.dn.StoredSum(id)
	if !ok {
		return 0, 0, fmt.Errorf("%w: block %d on datanode %d", ErrBlockNotFound, id, s.dn.id)
	}
	return size, sum, nil
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
