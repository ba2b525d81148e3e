package svc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/wal"
)

// The durable NameNode: every namespace mutation the dfs engine
// publishes is first appended (and fsync'd) to a wal.Log as one
// record, and the namespace is periodically checkpointed into the
// log's snapshot. A restart with the same -wal-dir replays snapshot +
// suffix and reconstructs the exact file table and placement map —
// the HDFS edits-log/fsimage pair, scaled to this reproduction.
//
// With P namespace shards there are P independent logs, one per shard
// directory of the WAL root (wal.ShardDirs; one layout for every P):
// shard i journals exactly the files that hash to it, fsyncs without
// contending with the other shards, checkpoints every 256 of its own
// records, and recovers independently. Nothing on a mutation's path
// waits for another shard's fsync: the cadence check after every
// acknowledged mutation reads each shard log's counters, and it reads
// them without the log's lock. Append holds that lock across its
// fsync, so taking it there made one client's reply wait out another
// client's fsync on a different shard (EXPERIMENTS.md measures that
// convoy).
//
// Records carry the *complete* per-file state after the mutation
// (full metadata on create, the full block map on relocate), not
// deltas. Replay is therefore an upsert and is idempotent, which lets
// the snapshot cadence capture the namespace image without stopping
// writers: the image is taken *after* reading the log sequence, so
// any record that races into both the image and the replay suffix
// converges to the same state.
//
// Records and checkpoints are values in the wire's binary layout
// (values.go), decoded by its one rule, decodeValue. A record is a
// kind byte and then that kind's value: a create is the file's
// fileMeta, whose name is the record's; a delete is a nameParams; a
// block-map change is a relocation. A checkpoint is the shard's
// namespaceImage. A payload that is not exactly that — an unknown
// kind, a short or overlong value, a record or snapshot a build before
// this layout wrote in JSON — is wal.ErrCorrupt: such a root is
// refused at its first record or snapshot, not migrated.

// Record kinds, the first byte of every journal record.
const (
	recordCreate byte = iota + 1
	recordDelete
	recordBlocks
)

// walJournal adapts a wal.Log to the dfs.Journal write-ahead hook.
// Its methods run under the owning shard's metadata lock and must
// stay callback-free.
type walJournal struct {
	log *wal.Log
}

// LogCreate refuses a name that is not UTF-8 before it is journaled:
// replay reads names by binReader.text's rule, so such a record, once
// acked, would leave its shard unable to restart. The wire refuses
// these names already; this stops an in-process create.
func (j *walJournal) LogCreate(fm *dfs.FileMeta) error {
	if !utf8.ValidString(fm.Name) {
		return fmt.Errorf("svc: file name %q is not UTF-8, so its record would replay as %w", fm.Name, wal.ErrCorrupt)
	}
	return j.append(recordCreate, (*fileMeta)(fm))
}

func (j *walJournal) LogDelete(name string) error {
	return j.append(recordDelete, nameParams{Name: name})
}

func (j *walJournal) LogBlocks(name string, blocks []dfs.BlockMeta) error {
	return j.append(recordBlocks, relocation{Name: name, Blocks: blocks})
}

func (j *walJournal) append(kind byte, v wireValue) error {
	if _, err := j.log.Append(v.appendWire(append(payloadBuf(), kind))); err != nil {
		return fmt.Errorf("svc: append wal record: %w", err)
	}
	return nil
}

// openJournal opens (or creates) one shard's WAL directory and
// rebuilds the shard image it describes.
func openJournal(dir string) (*walJournal, []*dfs.FileMeta, error) {
	log, err := wal.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("svc: open wal %s: %w", dir, err)
	}
	snap, snapSeq := log.Snapshot()
	files, err := foldNamespace(snap, snapSeq, log.Replay)
	if err != nil {
		_ = log.Close()
		return nil, nil, err
	}
	return &walJournal{log: log}, files, nil
}

// foldNamespace rebuilds a shard image, sorted by name, from bytes
// alone: the checkpoint snap, which covers the records up to snapSeq
// (none when snapSeq is 0; a nil snap beside a non-zero snapSeq is one
// the log could not read), and then each record recs yields, oldest
// first, upserted on top. Every payload that does not decode is
// wal.ErrCorrupt.
func foldNamespace(snap []byte, snapSeq uint64, recs func(yield func(seq uint64, rec []byte) error) error) ([]*dfs.FileMeta, error) {
	table := make(map[string]*dfs.FileMeta)
	if snapSeq > 0 {
		var img namespaceImage
		if !decodeValue(snap, &img) {
			return nil, fmt.Errorf("svc: wal snapshot at seq %d is unreadable: %w", snapSeq, wal.ErrCorrupt)
		}
		for _, fm := range img {
			table[fm.Name] = fm
		}
	}
	err := recs(func(seq uint64, rec []byte) error {
		if !foldRecord(table, rec) {
			return fmt.Errorf("svc: wal record %d is unreadable: %w", seq, wal.ErrCorrupt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	slices.Sort(names)
	files := make([]*dfs.FileMeta, len(names))
	for i, name := range names {
		files[i] = table[name]
	}
	return files, nil
}

// foldRecord upserts one record into table, or reports false for one
// that is not a kind byte followed by exactly that kind's value.
func foldRecord(table map[string]*dfs.FileMeta, rec []byte) bool {
	if len(rec) == 0 {
		return false
	}
	ok := false
	switch kind, v := rec[0], rec[1:]; kind {
	case recordCreate:
		fm := new(fileMeta)
		if ok = decodeValue(v, fm); ok {
			table[fm.Name] = (*dfs.FileMeta)(fm)
		}
	case recordDelete:
		var p nameParams
		if ok = decodeValue(v, &p); ok {
			delete(table, p.Name)
		}
	case recordBlocks:
		// A blocks record for an absent file is legal: it can sit in
		// the snapshot/suffix overlap window after the file's delete
		// was already folded into the snapshot. Upsert semantics make
		// it a no-op.
		var m relocation
		if ok = decodeValue(v, &m); ok {
			if fm := table[m.Name]; fm != nil {
				fm.Blocks = m.Blocks
			}
		}
	}
	return ok
}

// durableState is the NameNodeServer's durability bookkeeping: one
// journal and one checkpoint lock per namespace shard (empty when the
// NameNode runs without a WAL), and the block-id reservation.
type durableState struct {
	journals      []*walJournal
	snapshotEvery uint64
	snapMus       []sync.Mutex // one checkpoint at a time, per shard
	ids           idReservation
	// checkpointFailures counts cadence checkpoints that failed: each
	// leaves its shard's log growing until one succeeds.
	checkpointFailures atomic.Uint64
}

// blockIDMark names the mark in the WAL root that records how far block
// ids may have been handed out. Ids are leased before the file that
// will own them is journaled, so the highest journaled id says nothing
// about the writers in flight at a crash; without the mark a restarted
// NameNode would hand their ids to somebody else, and two writers would
// then put, complete and delete the same replicas.
const blockIDMark = "BLOCKIDS"

// idReservation persists the block-id ceiling (dfs.ReserveBlockIDs) as
// a mark in the WAL root — not a log record, since block ids are global
// and the logs are per shard.
type idReservation struct {
	mu     sync.Mutex
	root   string
	closed bool // crashed or shut down: a stray handler reserves nothing
}

// reserve is the engine's write-ahead hook.
func (r *idReservation) reserve(ceiling dfs.BlockID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return wal.ErrClosed
	}
	return wal.SaveMark(r.root, blockIDMark, uint64(ceiling))
}

// close stops reservations for good, so a handler still running in a
// crashed incarnation can never lower the mark behind its successor's
// back.
func (r *idReservation) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
}

// maybeSnapshot checkpoints every shard whose replay suffix has grown
// past the cadence. Safe (and cheap) to call after any mutation: a
// shard's suffix length is read without its log's lock, so it never
// waits for another shard's fsync in flight. Concurrent callers skip a
// shard being checkpointed rather than queue behind it. Shards
// checkpoint independently — a busy shard's cadence never forces an
// idle shard to re-image. A failed checkpoint fails no mutation; it is
// counted, and the next mutation past the cadence tries again.
func (s *NameNodeServer) maybeSnapshot() {
	d := &s.durable
	for i, j := range d.journals {
		if j.log.RecordsSinceSnapshot() < d.snapshotEvery {
			continue
		}
		if !d.snapMus[i].TryLock() {
			continue // this shard's checkpoint is already running
		}
		if err := s.snapshotLocked(i); err != nil {
			d.checkpointFailures.Add(1)
		}
		d.snapMus[i].Unlock()
	}
}

// snapshotLocked captures and saves one shard's checkpoint. The
// sequence is read *before* the image: records committed during the
// capture are both inside the image and replayed on top, which upsert
// replay makes harmless.
func (s *NameNodeServer) snapshotLocked(i int) error {
	d := &s.durable
	upTo := d.journals[i].log.Seq()
	state := namespaceImage(s.nn.FilesImageShard(i)).appendWire(nil)
	if err := d.journals[i].log.SaveSnapshot(state, upTo); err != nil {
		return fmt.Errorf("svc: save wal snapshot: %w", err)
	}
	return nil
}

// WALSeq reports the committed record sequence summed across shard
// journals (0 when the NameNode runs without a WAL). With one shard
// this is exactly the single log's sequence.
func (s *NameNodeServer) WALSeq() uint64 {
	var total uint64
	for _, j := range s.durable.journals {
		total += j.log.Seq()
	}
	return total
}

// WALSnapshotSeq reports the sequence covered by checkpoints, summed
// across shard journals. With one shard this is exactly the single
// log's newest snapshot sequence.
func (s *NameNodeServer) WALSnapshotSeq() uint64 {
	var total uint64
	for _, j := range s.durable.journals {
		total += j.log.SnapshotSeq()
	}
	return total
}

// Durable reports whether this NameNode journals its namespace.
func (s *NameNodeServer) Durable() bool { return len(s.durable.journals) > 0 }
