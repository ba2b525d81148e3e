// Package dfs is an in-memory model of the HDFS subsystem the ADAPT
// prototype modifies (§IV): a NameNode holding file→block→location
// metadata with a heartbeat collector and a performance predictor, a
// set of DataNodes storing block contents, and client operations
// mirroring the prototype's three interfaces — copyFromLocal
// (CopyFromLocalReportContext) and Cp with an ADAPT on/off flag, plus
// the new "adapt" shell command that redistributes an existing file's
// blocks availability-aware (the analogue of HDFS rebalance). Every
// client operation takes a context first.
//
// Files are split into fixed-size blocks; each block is stored on k
// replica DataNodes selected by a pluggable placement policy, exactly
// where the prototype hooks Algorithm 1 into the block distributor.
package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
)

// DefaultBlockSize is the HDFS default of 64 MB.
const DefaultBlockSize = 64 * 1024 * 1024

// MaxFileBlocks bounds the blocks of one file — 4 TiB at the default
// block size. A file's block map travels whole, as one journal record
// and one control frame, and an allocation draws every placement before
// a byte moves, so the count a caller may ask for has to be finite.
const MaxFileBlocks = 1 << 16

// BlockID identifies a block globally.
type BlockID int64

// BlockMeta describes one block of a file.
type BlockMeta struct {
	ID       BlockID
	File     string
	Index    int   // position within the file
	Size     int64 // bytes (last block may be short)
	Replicas []cluster.NodeID
	// Checksum is the CRC32C of the block bytes. The writer folds it
	// from the chunk sums it streams the block with, and every read
	// compares the sum its store reports against it, so corrupted
	// replicas are rejected and reads fail over to intact copies.
	Checksum uint32
}

// FileMeta is the NameNode-side description of a file.
type FileMeta struct {
	Name        string
	Size        int64
	BlockSize   int64
	Replication int
	Blocks      []BlockMeta
}

// Errors. ErrNodeDown, ErrChecksum, ErrNoReplica, and ErrNoLiveNodes
// are transient (see IsTransient): they can succeed on retry once a
// node rejoins or an intact replica is found. The rest are permanent.
var (
	ErrFileExists     = errors.New("dfs: file already exists")
	ErrFileNotFound   = errors.New("dfs: file not found")
	ErrBlockNotFound  = errors.New("dfs: block not found")
	ErrNoReplica      = errors.New("dfs: no live replica")
	ErrBadBlockSize   = errors.New("dfs: block size must be positive")
	ErrBadReplication = errors.New("dfs: replication must be >= 1")
	// ErrNodeDown marks operations rejected because the DataNode is
	// not serving requests; match it with errors.Is.
	ErrNodeDown = errors.New("dfs: datanode down")
	// ErrChecksum marks block bytes that failed CRC32C verification.
	ErrChecksum = errors.New("dfs: block checksum mismatch")
	// ErrNoLiveNodes marks a write no live DataNode would accept.
	ErrNoLiveNodes = errors.New("dfs: no live datanode accepted the block")
	// ErrUnknownNode marks a reference to a node id outside the
	// cluster; always a caller bug, never retryable.
	ErrUnknownNode = errors.New("dfs: unknown datanode")
	// ErrNoNameNode marks a client constructed without a NameNode.
	ErrNoNameNode = errors.New("dfs: client needs a namenode")
	// ErrInconsistent marks a CheckConsistency violation: metadata
	// pointing at missing, corrupt, or malformed replicas. Permanent —
	// it means an invariant broke, not that a retry could help.
	ErrInconsistent = errors.New("dfs: metadata inconsistent")
	// ErrNotLocal marks a request for the in-process *DataNode of a
	// node whose BlockStore is a remote proxy; always a caller bug.
	ErrNotLocal = errors.New("dfs: datanode is not local to this namenode")
	// ErrJournal marks a namespace mutation refused because its
	// write-ahead record could not be made durable. The in-memory
	// state is unchanged — the mutation simply did not happen, so the
	// client never receives an ack the log cannot back. Permanent: the
	// journal handle breaks on the first durability failure.
	ErrJournal = errors.New("dfs: namespace journal write failed")
	// ErrBadConfig marks an invalid hedged-read configuration passed to
	// SetHedge; always a caller bug.
	ErrBadConfig = errors.New("dfs: bad hedge config")
	// ErrLeaseExpired marks a Complete naming block ids the NameNode has
	// no live allocation for: the lease ran out, or the NameNode
	// restarted and forgot it. Transient — the writer starts the create
	// over with a fresh allocation; the replicas it wrote under the old
	// one are unreferenced, and the next ScrubOrphans (every service
	// repair scan runs one) removes them.
	ErrLeaseExpired = errors.New("dfs: allocation lease unknown or expired")
	// ErrFileTooLarge marks a create cut into more than MaxFileBlocks
	// blocks; permanent until the block size grows.
	ErrFileTooLarge = errors.New("dfs: file has too many blocks")
	// ErrOverload marks a request shed by server-side admission
	// control: a concurrency limit was saturated and the bounded wait
	// queue could not hold (or outwait) the request. Transient — the
	// identical request succeeds once load drains — and deliberately
	// fast: shedding replies immediately instead of queueing into
	// collapse.
	ErrOverload = errors.New("dfs: server overloaded, request shed")
)

// Op identifies a DataNode operation for fault injection.
type Op int

// DataNode operations.
const (
	OpPut Op = iota
	OpGet
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// FaultInjector is the hook through which a chaos engine perturbs
// DataNode operations. Implementations must be safe for concurrent
// use; they are consulted outside the DataNode's lock.
type FaultInjector interface {
	// FailOp may return a non-nil error to make the operation fail
	// before touching storage (a transient RPC-level fault).
	FailOp(node cluster.NodeID, op Op, block BlockID) error
	// CorruptRead may mutate and return the (already copied) bytes a
	// read is about to return, emulating wire/memory bit flips; what it
	// returns must be as long as data. The stored bytes are unaffected.
	CorruptRead(node cluster.NodeID, block BlockID, data []byte) []byte
}

// DataNode stores block contents for one cluster node. A DataNode can
// be marked down to emulate interruptions; reads against a down node
// fail, while its stored blocks persist (the paper's §II-B: data
// survives on persistent storage across interruptions).
type DataNode struct {
	id cluster.NodeID

	mu     sync.RWMutex
	up     bool
	blocks map[BlockID]*replica
	faults FaultInjector

	// dropped counts the replicas the store has let go of whose
	// buffers are not yet back in the pool: each is one a reader still
	// pins.
	dropped atomic.Int64
}

// replica is one stored block's bytes, the sums of the chunks they
// were written in, and the pins that keep the bytes from being
// recycled. The sums of a block of up to len(inline) chunks live in
// inline, so they cost no allocation of their own.
type replica struct {
	data   []byte
	sums   []ChunkSum
	inline [4]ChunkSum
	pins   atomic.Int32
}

// NewDataNode creates an empty, up DataNode.
func NewDataNode(id cluster.NodeID) *DataNode {
	return &DataNode{id: id, up: true, blocks: make(map[BlockID]*replica)}
}

// Up reports whether the node is serving requests.
func (d *DataNode) Up() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.up
}

// SetUp marks the node up or down.
func (d *DataNode) SetUp(up bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.up = up
}

// SetFaults attaches (or, with nil, detaches) a fault injector
// consulted on every Put and Get.
func (d *DataNode) SetFaults(f FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = f
}

func (d *DataNode) injector() FaultInjector {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.faults
}

// Stored replicas are never written in place, and their memory is
// recycled only once nobody reads it. Each replica carries pins: the
// store holds one while the block is in its map, and every reader holds
// one while it reads the bytes. A pin is taken under the read lock
// while the replica is still in the map, so it never revives a replica
// whose count has reached zero; Delete, a replacing Adopt and Clear
// drop the store's pin, and the buffer goes back to the replica pool
// (NewReplicaBuf) when the last pin drops. So View can hand out the
// stored slice itself, and a slice stays intact until its reader
// releases it, whatever happens to its block meanwhile.

// pin takes one pin on r.
func (d *DataNode) pin(r *replica) { r.pins.Add(1) }

// unpin drops one pin on r, recycling its buffer with the last. The
// store's pin is the last to drop only through drop, so the last pin
// of any replica settles one count of d.dropped.
func (d *DataNode) unpin(r *replica) {
	if r.pins.Add(-1) == 0 {
		d.dropped.Add(-1)
		RecycleReplicaBuf(r.data)
	}
}

// drop releases the store's pin on a replica it no longer holds.
func (d *DataNode) drop(r *replica) {
	d.dropped.Add(1)
	d.unpin(r)
}

// Pins returns the pins on the node's stored replicas — the store's
// own one each and one per reader that has not released — plus one
// per replica the store has dropped that a reader still pins. Once the
// readers are done and the node is cleared, anything else is a leaked
// pin.
//
//lint:ignore deadcode pool-balance check: svc's pin tests require every pin released after a stream ends
func (d *DataNode) Pins() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.dropped.Load()
	for _, r := range d.blocks {
		n += int64(r.pins.Load())
	}
	return n
}

// Adopt stores data as a block replica without copying it, with sums,
// the sums of the chunks it arrived in, which must cover data exactly:
// the store owns data from here on, and the caller must not write it
// again. sums is copied. On an error the caller keeps data. Writes
// require a live node.
func (d *DataNode) Adopt(id BlockID, data []byte, sums []ChunkSum) error {
	covered := 0
	for _, cs := range sums {
		covered += int(cs.Len)
	}
	if len(sums) == 0 || covered != len(data) {
		return fmt.Errorf("%w: block %d: %d chunk sums cover %d of %d bytes", ErrInconsistent, id, len(sums), covered, len(data))
	}
	if f := d.injector(); f != nil {
		if err := f.FailOp(d.id, OpPut, id); err != nil {
			return err
		}
	}
	r := &replica{data: data}
	r.sums = append(r.inline[:0], sums...)
	d.mu.Lock()
	if !d.up {
		d.mu.Unlock()
		return fmt.Errorf("%w: datanode %d rejected put of block %d", ErrNodeDown, d.id, id)
	}
	old := d.blocks[id]
	d.pin(r)
	d.blocks[id] = r
	d.mu.Unlock()
	if old != nil {
		d.drop(old)
	}
	return nil
}

// View reads a block replica without copying it: the returned slice is
// the stored replica, pinned until the caller calls release, exactly
// once, after its last read of it, and sums are the sums of the chunks
// it was written in. The caller must write neither. With a fault
// injector attached data is a private copy that CorruptRead has seen,
// so an injected corruption never reaches the stored bytes, and sums
// are still the stored ones: a reader that checks the copy against
// them catches the corruption.
func (d *DataNode) View(id BlockID) (data []byte, sums []ChunkSum, release func(), err error) {
	data, r, pinned, err := d.read(id, true)
	switch {
	case err != nil:
		return nil, nil, nil, err
	case !pinned:
		return data, r.sums, func() {}, nil
	}
	return data, r.sums, func() { d.unpin(r) }, nil
}

// read is the one lookup behind View, Get and GetStored. It returns the
// replica and the bytes to read: the replica's own, pinned, or a copy
// made for the fault injector, when pinned is false. needUp rejects the
// read while the node is down.
func (d *DataNode) read(id BlockID, needUp bool) (data []byte, r *replica, pinned bool, err error) {
	f := d.injector()
	if f != nil {
		if err := f.FailOp(d.id, OpGet, id); err != nil {
			return nil, nil, false, err
		}
	}
	r, err = d.lookup(id, needUp)
	if err != nil {
		return nil, nil, false, err
	}
	if f == nil {
		return r.data, r, true, nil
	}
	data = bytes.Clone(r.data)
	d.unpin(r)
	return f.CorruptRead(d.id, id, data), r, false, nil
}

// lookup pins a stored replica. needUp rejects the lookup while the
// node is down.
func (d *DataNode) lookup(id BlockID, needUp bool) (*replica, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if needUp && !d.up {
		return nil, fmt.Errorf("%w: datanode %d rejected get of block %d", ErrNodeDown, d.id, id)
	}
	r, ok := d.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d on datanode %d", ErrBlockNotFound, id, d.id)
	}
	d.pin(r)
	return r, nil
}

// Put stores a copy of data as a block replica; the caller keeps data.
// Writes require a live node.
func (d *DataNode) Put(id BlockID, data []byte) error {
	_, err := d.put(id, data)
	return err
}

// put is Put reporting the CRC32C of what it stored. The copy is summed
// on the ChunkSize grid, and those are the replica's chunk sums.
func (d *DataNode) put(id BlockID, data []byte) (uint32, error) {
	buf := NewReplicaBuf(len(data))
	copy(buf, data)
	var inline [4]ChunkSum
	sums := appendChunkSums(inline[:0], buf)
	if err := d.Adopt(id, buf, sums); err != nil {
		RecycleReplicaBuf(buf)
		return 0, err
	}
	return foldChunkSums(sums), nil
}

// putSummed is put for bytes whose CRC32C the caller already has from
// another replica of the block: the copy is kept as one chunk under
// that sum, and its bytes are not summed again.
func (d *DataNode) putSummed(id BlockID, data []byte, sum uint32) error {
	buf := NewReplicaBuf(len(data))
	copy(buf, data)
	sums := [1]ChunkSum{{Len: uint32(len(buf)), Sum: sum}}
	if err := d.Adopt(id, buf, sums[:]); err != nil {
		RecycleReplicaBuf(buf)
		return err
	}
	return nil
}

// Get reads a block replica into a copy the caller owns.
func (d *DataNode) Get(id BlockID) ([]byte, error) {
	return d.get(id, true)
}

// GetStored is Get whatever the node's up state: the bits persist on
// disk across an interruption (§II-B), and reading them neither needs
// nor changes liveness. The fault injector still sees the read.
func (d *DataNode) GetStored(id BlockID) ([]byte, error) {
	return d.get(id, false)
}

func (d *DataNode) get(id BlockID, needUp bool) ([]byte, error) {
	data, r, pinned, err := d.read(id, needUp)
	if err != nil || !pinned {
		return data, err
	}
	defer d.unpin(r)
	return bytes.Clone(data), nil
}

// StoredSum returns the size and CRC32C of the bytes the node
// holds for a block regardless of its up state and without fault
// injection — the "bits on disk" view used by consistency
// verification, summed where the bytes are so none of them travel. It
// sums the bytes themselves, not the chunk sums kept beside them, so a
// replica that rotted after it was written shows. The sum is computed
// under a pin, not the lock, so puts and deletes on the node do not
// wait for it.
func (d *DataNode) StoredSum(id BlockID) (size int64, sum uint32, ok bool) {
	r, err := d.lookup(id, false)
	if err != nil {
		return 0, 0, false
	}
	defer d.unpin(r)
	return int64(len(r.data)), Checksum(r.data), true
}

// Delete removes a block replica (no-op if absent). Deletes are
// metadata-driven and succeed even while the node is down, matching
// HDFS's lazy block invalidation on rejoin.
func (d *DataNode) Delete(id BlockID) {
	d.mu.Lock()
	r, ok := d.blocks[id]
	delete(d.blocks, id)
	d.mu.Unlock()
	if ok {
		d.drop(r)
	}
}

// Clear removes every replica the node stores, as the exit of a process
// would free a memory-only store: each buffer goes back to the replica
// pool once its last reader releases it.
func (d *DataNode) Clear() {
	d.mu.Lock()
	blocks := d.blocks
	d.blocks = make(map[BlockID]*replica)
	d.mu.Unlock()
	for _, r := range blocks {
		d.drop(r)
	}
}

// Has reports whether the node stores the block (regardless of up
// state — the bits are on disk).
func (d *DataNode) Has(id BlockID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.blocks[id]
	return ok
}

// StoredBlocks returns the ids of every block the node stores, in
// ascending order (regardless of up state — the bits are on disk).
// ScrubOrphans diffs this inventory against live metadata.
func (d *DataNode) StoredBlocks() []BlockID {
	d.mu.RLock()
	ids := make([]BlockID, 0, len(d.blocks))
	for id := range d.blocks {
		ids = append(ids, id)
	}
	d.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// UsedBytes returns the bytes stored.
func (d *DataNode) UsedBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, r := range d.blocks {
		total += int64(len(r.data))
	}
	return total
}

// nsShard is one independently-locked slice of the namespace: its own
// file table, per-file structural lock table, and write-ahead journal.
// Paths hash onto shards via shard.Map, so mutations of unrelated
// files on different shards never contend on a lock or an fsync.
//
// Lock discipline: code never holds two shard locks at once.
// Whole-namespace operations visit shards one at a time in ascending
// shard-index order (adaptlint's lockcheck enforces the no-nesting
// rule as its leaf-lock rule: the type's "Shard" suffix opts mu in).
// The quota registry is a leaf lock and may be taken under a shard
// lock.
type nsShard struct {
	mu        sync.Mutex
	files     map[string]*FileMeta
	fileLocks map[string]*sync.Mutex
	journal   Journal // write-ahead hook; nil = volatile shard
}

// NameNode is the metadata service: the sharded file table, block
// locations, the heartbeat-fed availability estimates, and the
// performance predictor that turns them into placement weights.
type NameNode struct {
	smap   shard.Map
	shards []*nsShard
	// cluster is the availability snapshot placement reads: an
	// immutable *cluster.Cluster that RefreshAvailability replaces
	// whole, so a reader loads it once and holds no lock.
	cluster   atomic.Pointer[cluster.Cluster]
	nextBlock atomic.Int64 // global block-id allocator; minted under leases.mu
	// io moves the bytes of everything the NameNode copies itself:
	// in-process clients, cp, adapt, rebalance, repair. Networked
	// clients own their own instance (see BlockIO).
	io        *BlockIO
	heartbeat *cluster.HeartbeatEstimator
	quotas    *shard.Quotas
	leases    leaseTable
}

// NewNameNode builds a single-shard NameNode and one in-process
// DataNode per cluster node.
func NewNameNode(c *cluster.Cluster) (*NameNode, error) {
	return NewNameNodeSharded(c, nil, 1)
}

// NewNameNodeSharded builds a NameNode whose namespace is split into
// shards independently-locked shards (see nsShard). stores may be nil,
// in which case one in-process DataNode per cluster node is created.
// Shard count 1 reproduces the classic single-table NameNode exactly.
func NewNameNodeSharded(c *cluster.Cluster, stores []BlockStore, shards int) (*NameNode, error) {
	if c == nil || c.Len() == 0 {
		return nil, cluster.ErrNoNodes
	}
	if stores == nil {
		stores = make([]BlockStore, c.Len())
		for i := 0; i < c.Len(); i++ {
			stores[i] = localStore{NewDataNode(cluster.NodeID(i))}
		}
	}
	if len(stores) != c.Len() {
		return nil, fmt.Errorf("%w: %d stores for %d nodes", ErrUnknownNode, len(stores), c.Len())
	}
	smap, err := shard.NewMap(shards)
	if err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	nn := &NameNode{
		smap:      smap,
		shards:    make([]*nsShard, shards),
		io:        NewBlockIO(stores),
		heartbeat: cluster.NewHeartbeatEstimator(),
		quotas:    shard.NewQuotas(),
		leases:    newLeaseTable(),
	}
	nn.cluster.Store(c)
	for i := range nn.shards {
		nn.shards[i] = &nsShard{
			files:     make(map[string]*FileMeta),
			fileLocks: make(map[string]*sync.Mutex),
		}
	}
	return nn, nil
}

// shardOf returns the shard owning a path.
func (nn *NameNode) shardOf(name string) *nsShard {
	return nn.shards[nn.smap.Of(name)]
}

// ShardCount returns the namespace shard count P.
func (nn *NameNode) ShardCount() int { return len(nn.shards) }

// Quotas returns the tenant quota registry enforced on every create
// and released on every delete.
func (nn *NameNode) Quotas() *shard.Quotas { return nn.quotas }

// Resilience returns the shared retry/failover/repair counters every
// client and DataNode of this NameNode reports into.
func (nn *NameNode) Resilience() *metrics.ResilienceCounters { return nn.io.Resilience() }

// SetNodeUp flips one DataNode's liveness — the hook a chaos engine
// drives. It returns an error for unknown ids.
func (nn *NameNode) SetNodeUp(id cluster.NodeID, up bool) error {
	s, err := nn.Store(id)
	if err != nil {
		return err
	}
	s.SetUp(up)
	return nil
}

// SetFaultInjector attaches a fault injector to every in-process
// DataNode (nil detaches). Remote stores are unaffected: their chaos
// surface is the transport fault hook, not the storage hook.
func (nn *NameNode) SetFaultInjector(f FaultInjector) {
	for _, s := range nn.io.stores {
		if ls, ok := s.(localStore); ok {
			ls.dn.SetFaults(f)
		}
	}
}

// lockFile serializes structural operations (redistribute, repair,
// delete) on one file and returns the unlock function. Reads and
// writes of other files proceed concurrently. The lock table lives in
// the file's shard, so structural traffic on different shards never
// meets on a shared table lock.
func (nn *NameNode) lockFile(name string) func() {
	sh := nn.shardOf(name)
	sh.mu.Lock()
	l, ok := sh.fileLocks[name]
	if !ok {
		l = &sync.Mutex{}
		sh.fileLocks[name] = l
	}
	sh.mu.Unlock()
	l.Lock()
	return l.Unlock
}

// Cluster returns the current availability snapshot. It is immutable:
// a refresh publishes a new one and leaves this one as it was, so an
// operation that loads it once reads one consistent set of weights.
func (nn *NameNode) Cluster() *cluster.Cluster { return nn.cluster.Load() }

// DataNode returns the in-process DataNode for a cluster node. On a
// NameNode built over remote stores it fails with ErrNotLocal; use
// Store for the transport-agnostic view.
func (nn *NameNode) DataNode(id cluster.NodeID) (*DataNode, error) {
	s, err := nn.Store(id)
	if err != nil {
		return nil, err
	}
	l, ok := s.(interface{ Local() *DataNode })
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrNotLocal, id)
	}
	return l.Local(), nil
}

// Store returns the BlockStore for a cluster node.
func (nn *NameNode) Store(id cluster.NodeID) (BlockStore, error) {
	if int(id) < 0 || int(id) >= len(nn.io.stores) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return nn.io.stores[id], nil
}

// Heartbeat returns the heartbeat estimator (the ADAPT performance
// predictor's input, §IV-B1).
func (nn *NameNode) Heartbeat() *cluster.HeartbeatEstimator { return nn.heartbeat }

// RefreshAvailability folds the heartbeat estimates into a new
// cluster snapshot and publishes it, as the prototype does when its
// two-double per-node structure changes. It never writes the snapshot
// readers hold. The publish is a compare-and-swap from the snapshot the
// copy was made from: a copy whose base was replaced meanwhile is
// redone, so a published copy always read the estimator after its
// predecessor did, and an older estimate never replaces a newer one.
// It returns the number of nodes whose (λ, μ) changed.
func (nn *NameNode) RefreshAvailability() int {
	for {
		old := nn.cluster.Load()
		next := nn.heartbeat.Apply(old)
		if nn.cluster.CompareAndSwap(old, next) {
			changed := 0
			for i := 0; i < old.Len(); i++ {
				id := cluster.NodeID(i)
				if old.Node(id).Availability != next.Node(id).Availability {
					changed++
				}
			}
			return changed
		}
	}
}

// Stat returns a file's metadata (deep copy).
func (nn *NameNode) Stat(name string) (*FileMeta, error) {
	sh := nn.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fm, ok := sh.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrFileNotFound, name)
	}
	return copyFileMeta(fm), nil
}

// List returns all file names in lexical order. Shards are visited
// one at a time in ascending index order and the union sorted, so the
// merged view is deterministic regardless of shard count.
func (nn *NameNode) List() []string {
	var names []string
	for _, sh := range nn.shards {
		sh.mu.Lock()
		for n := range sh.files {
			names = append(names, n)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// Exists reports whether a file exists.
func (nn *NameNode) Exists(name string) bool {
	sh := nn.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.files[name]
	return ok
}

// DeleteContext removes a file and its block replicas, with a deadline
// for the replica invalidations. It serializes with redistribute and
// repair on the same file so a concurrent structural operation can
// never strand replicas. Replica deletes are best-effort (HDFS's lazy
// block invalidation): an unreachable holder keeps a surplus copy, never
// live metadata, and ScrubOrphans collects it.
func (nn *NameNode) DeleteContext(ctx context.Context, name string) error {
	unlock := nn.lockFile(name)
	defer unlock()
	sh := nn.shardOf(name)
	sh.mu.Lock()
	fm, ok := sh.files[name]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrFileNotFound, name)
	}
	if err := sh.logDelete(name); err != nil {
		sh.mu.Unlock()
		return err
	}
	delete(sh.files, name)
	sh.mu.Unlock()
	nn.quotas.Release(shard.TenantOf(name), 1, fm.Size)
	for _, bm := range fm.Blocks {
		for _, r := range bm.Replicas {
			_ = nn.io.stores[r].Delete(ctx, bm.ID)
		}
	}
	return nil
}

// BlockDistribution returns per-node replica counts for a file.
func (nn *NameNode) BlockDistribution(name string) ([]int, error) {
	sh := nn.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fm, ok := sh.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrFileNotFound, name)
	}
	counts := make([]int, len(nn.io.stores))
	for _, bm := range fm.Blocks {
		for _, r := range bm.Replicas {
			counts[r]++
		}
	}
	return counts, nil
}

// TotalBlocks returns the number of blocks across all files.
func (nn *NameNode) TotalBlocks() int {
	n := 0
	for _, sh := range nn.shards {
		sh.mu.Lock()
		for _, fm := range sh.files {
			n += len(fm.Blocks)
		}
		sh.mu.Unlock()
	}
	return n
}

func copyFileMeta(fm *FileMeta) *FileMeta {
	out := *fm
	out.Blocks = make([]BlockMeta, len(fm.Blocks))
	copy(out.Blocks, fm.Blocks)
	for i := range out.Blocks {
		rs := make([]cluster.NodeID, len(fm.Blocks[i].Replicas))
		copy(rs, fm.Blocks[i].Replicas)
		out.Blocks[i].Replicas = rs
	}
	return &out
}

// createFile is the whole create, the three steps HDFS has run back to
// back: allocate (the NameNode decides), WriteBlocks (the caller's
// BlockIO moves the bytes), Complete (the NameNode publishes). A
// networked client runs the same three with an RPC either side of the
// middle one. size must be the exact byte count r will deliver.
// Callers hold no lock.
func (nn *NameNode) createFile(ctx context.Context, name string, r io.Reader, size int64, blockSize int64, replication int, pol placement.Policy, g *stats.RNG, retry RetryPolicy, report *WriteReport) (*FileMeta, error) {
	a, err := nn.allocate(ctx, name, size, blockSize, replication, pol, g)
	if err != nil {
		return nil, err
	}
	blocks, err := nn.io.WriteBlocks(ctx, a, r, retry, report)
	if err != nil {
		nn.leases.drop(a)
		return nil, err
	}
	fm, err := nn.Complete(name, blocks)
	if err != nil {
		nn.io.DeleteBlocks(ctx, blocks)
		return nil, err
	}
	return fm, nil
}

// allocate is step one of a create: it fails fast on an existing name
// or an exhausted quota, mints every block id and draws every
// placement (same placer construction and RNG usage whoever writes the
// bytes, so placement per seed does not depend on the transport), and
// leases the ids to name until ctx's deadline. It touches no store and
// holds no lock beyond the lease table's; the draws read whichever
// availability snapshot pol was built from.
func (nn *NameNode) allocate(ctx context.Context, name string, size, blockSize int64, replication int, pol placement.Policy, g *stats.RNG) (*Allocation, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadBlockSize, blockSize)
	}
	if replication < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadReplication, replication)
	}
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size %d", ErrBadBlockSize, size)
	}
	blocks := blockCount(size, blockSize)
	if blocks > MaxFileBlocks {
		return nil, fmt.Errorf("%w: %q would be %d blocks of %d bytes, the limit is %d", ErrFileTooLarge, name, blocks, blockSize, MaxFileBlocks)
	}
	if nn.Exists(name) {
		return nil, fmt.Errorf("%w: %q", ErrFileExists, name)
	}
	// Fail fast on quota before any replica bytes move; the
	// authoritative admission is the Reserve in Complete.
	if err := nn.quotas.Check(shard.TenantOf(name), 1, size, replication); err != nil {
		return nil, fmt.Errorf("dfs: create %q: %w", name, err)
	}

	nBlocks := int(blocks)
	placer, err := pol.NewPlacer(nBlocks, replication, g)
	if err != nil {
		return nil, fmt.Errorf("dfs: create %q: %w", name, err)
	}
	a := &Allocation{
		Name: name, Size: size, BlockSize: blockSize, Replication: replication,
		Blocks: make([]AllocatedBlock, nBlocks),
	}
	for i := range a.Blocks {
		if a.Blocks[i].Holders, err = placer.PlaceBlock(nil); err != nil {
			return nil, fmt.Errorf("dfs: create %q block %d: %w", name, i, err)
		}
	}
	a.Seed = g.Uint64()
	if err := nn.leases.grant(ctx, a, &nn.nextBlock); err != nil {
		return nil, fmt.Errorf("dfs: create %q: %w", name, err)
	}
	return a, nil
}

// Complete is step three of a create: it publishes the file whose
// blocks the writer reports, at the same journal point a create has
// always had. Only block ids leased to name by a live allocation are
// accepted, and the name, sizes and replication come from that
// allocation, not from the caller; an unknown or expired lease is
// ErrLeaseExpired (transient: the writer starts over with a fresh
// allocation). On any error nothing was published and the caller still
// owns the replicas it wrote.
func (nn *NameNode) Complete(name string, blocks []BlockMeta) (*FileMeta, error) {
	a, err := nn.leases.pin(name, blocks)
	if err != nil {
		return nil, err
	}
	// The lease goes only after the publish (or its refusal): dropping
	// it first would open a window in which ScrubOrphans sees the
	// replicas as neither leased nor referenced.
	defer nn.leases.drop(a)
	fm := &FileMeta{
		Name: a.Name, Size: a.Size, BlockSize: a.BlockSize, Replication: a.Replication,
		Blocks: make([]BlockMeta, len(blocks)),
	}
	for i, bm := range blocks {
		lo, hi := a.blockSpan(i)
		if err := nn.checkHolders(bm.Replicas); err != nil {
			return nil, fmt.Errorf("dfs: complete %q block %d: %w", name, i, err)
		}
		fm.Blocks[i] = BlockMeta{
			ID: bm.ID, File: a.Name, Index: i, Size: hi - lo,
			Replicas: append([]cluster.NodeID(nil), bm.Replicas...), Checksum: bm.Checksum,
		}
	}

	tenant := shard.TenantOf(name)
	sh := nn.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.files[name]; ok {
		return nil, fmt.Errorf("%w: %q (raced)", ErrFileExists, name)
	}
	// Admission: the quota reservation is authoritative here, under the
	// shard lock, so two racing creates cannot both squeeze under the
	// cap. The quota registry is a leaf lock (see shard.Quotas).
	if err := nn.quotas.Reserve(tenant, 1, a.Size, a.Replication); err != nil {
		return nil, fmt.Errorf("dfs: create %q: %w", name, err)
	}
	// Write-ahead: the create is journaled before it is published or
	// acknowledged; a journal failure releases the reservation and
	// leaves no trace of the file.
	if err := sh.logCreate(fm); err != nil {
		nn.quotas.Release(tenant, 1, a.Size)
		return nil, err
	}
	sh.files[name] = fm
	return copyFileMeta(fm), nil
}

// checkHolders validates one reported replica list: at least one
// holder, every id in the cluster, none twice.
func (nn *NameNode) checkHolders(rs []cluster.NodeID) error {
	if len(rs) == 0 {
		return fmt.Errorf("%w: no replica reported", ErrNoLiveNodes)
	}
	for i, r := range rs {
		if int(r) < 0 || int(r) >= len(nn.io.stores) {
			return fmt.Errorf("%w: %d", ErrUnknownNode, r)
		}
		for _, prev := range rs[:i] {
			if prev == r {
				return fmt.Errorf("%w: holder %d reported twice", ErrInconsistent, r)
			}
		}
	}
	return nil
}

// publishBlocks swaps a file's block map for newBlocks under the
// shard lock, write-ahead journaled — the single publish point for
// redistribute and repair. The caller must hold the file's structural
// lock and guarantee every holder named in newBlocks already stores
// the bytes. ErrFileNotFound means the file was deleted since the
// caller's Stat.
func (nn *NameNode) publishBlocks(name string, newBlocks []BlockMeta) error {
	sh := nn.shardOf(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	live, ok := sh.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrFileNotFound, name)
	}
	if err := sh.logBlocks(name, newBlocks); err != nil {
		return err
	}
	live.Blocks = newBlocks
	return nil
}

// Locate is Stat for a reader about to fetch the blocks itself: it
// orders each block's replicas with the ones this NameNode believes up
// first.
func (nn *NameNode) Locate(name string) (*FileMeta, error) {
	fm, err := nn.Stat(name)
	if err != nil {
		return nil, err
	}
	for _, bm := range fm.Blocks {
		// Stable partition in place; replica lists are a few entries.
		up := 0
		for i, r := range bm.Replicas {
			if nn.io.stores[r].Up() {
				copy(bm.Replicas[up+1:i+1], bm.Replicas[up:i])
				bm.Replicas[up] = r
				up++
			}
		}
	}
	return fm, nil
}

// CheckConsistency verifies the NameNode's metadata invariants, the
// ones the churn-soak test asserts must hold at every instant:
//
//   - every block lists at least one replica, with no duplicates and
//     no out-of-range node ids;
//   - every listed holder still stores the block's bytes (bits on
//     persistent storage survive downtime, and structural operations
//     publish new locations before pruning old replicas, so metadata
//     may never point at data that is gone);
//   - the stored bytes match the block's size and CRC32C.
//
// It takes each file's structural lock so it cannot observe a
// redistribute or repair mid-flight. The first violation is returned
// as a descriptive error wrapping ErrInconsistent; nil means
// consistent. A holder that could not be asked (unreachable, shedding)
// ends the check with its transient error instead: no verdict. ctx
// bounds the per-replica checksum fetches.
func (nn *NameNode) CheckConsistency(ctx context.Context) error {
	for _, name := range nn.List() {
		if err := nn.checkFile(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

func (nn *NameNode) checkFile(ctx context.Context, name string) error {
	unlock := nn.lockFile(name)
	defer unlock()
	fm, err := nn.Stat(name)
	if err != nil {
		if errors.Is(err, ErrFileNotFound) {
			return nil // deleted between List and lock — consistent
		}
		return err
	}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) == 0 {
			return fmt.Errorf("%w: %q block %d: no replicas in metadata", ErrInconsistent, name, bm.Index)
		}
		seen := make(map[cluster.NodeID]bool, len(bm.Replicas))
		for _, r := range bm.Replicas {
			if int(r) < 0 || int(r) >= len(nn.io.stores) {
				return fmt.Errorf("%w: %q block %d: bad node id %d", ErrInconsistent, name, bm.Index, r)
			}
			if seen[r] {
				return fmt.Errorf("%w: %q block %d: duplicate holder %d", ErrInconsistent, name, bm.Index, r)
			}
			seen[r] = true
			size, sum, err := nn.io.stores[r].StoredSum(ctx, bm.ID)
			switch {
			case errors.Is(err, ErrBlockNotFound):
				return fmt.Errorf("%w: %q block %d: holder %d lost block %d", ErrInconsistent, name, bm.Index, r, bm.ID)
			case err != nil:
				// The holder could not be asked: that says nothing about
				// its replica, and the caller may ask again.
				return fmt.Errorf("dfs: check %q block %d on holder %d: %w", name, bm.Index, r, err)
			}
			if size != bm.Size {
				return fmt.Errorf("%w: %q block %d: holder %d has %d bytes, want %d", ErrInconsistent, name, bm.Index, r, size, bm.Size)
			}
			if sum != bm.Checksum {
				return fmt.Errorf("%w: %q block %d: holder %d stores corrupt bytes", ErrInconsistent, name, bm.Index, r)
			}
		}
	}
	return nil
}
