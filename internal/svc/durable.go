package svc

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/wal"
)

// The durable NameNode: every namespace mutation the dfs engine
// publishes is first appended (and fsync'd) to a wal.Log as a
// walRecord, and the namespace is periodically checkpointed into the
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

// walRecord is the journal's record encoding, one JSON object per WAL
// entry.
type walRecord struct {
	Kind   string          `json:"kind"` // "create" | "delete" | "blocks"
	Name   string          `json:"name"`
	File   *dfs.FileMeta   `json:"file,omitempty"`
	Blocks []dfs.BlockMeta `json:"blocks,omitempty"`
}

// walSnapshot is the checkpoint encoding: the full shard image, files
// sorted by name.
type walSnapshot struct {
	Files []*dfs.FileMeta `json:"files"`
}

// walJournal adapts a wal.Log to the dfs.Journal write-ahead hook.
// Its methods run under the owning shard's metadata lock and must
// stay callback-free.
type walJournal struct {
	log *wal.Log
}

func (j *walJournal) LogCreate(fm *dfs.FileMeta) error {
	return j.append(walRecord{Kind: "create", Name: fm.Name, File: fm})
}

func (j *walJournal) LogDelete(name string) error {
	return j.append(walRecord{Kind: "delete", Name: name})
}

func (j *walJournal) LogBlocks(name string, blocks []dfs.BlockMeta) error {
	return j.append(walRecord{Kind: "blocks", Name: name, Blocks: blocks})
}

func (j *walJournal) append(r walRecord) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("svc: encode wal record: %w", err)
	}
	if _, err := j.log.Append(buf); err != nil {
		return fmt.Errorf("svc: append wal record: %w", err)
	}
	return nil
}

// openJournal opens (or creates) one shard's WAL directory and
// rebuilds the shard image it describes: newest snapshot first, then
// the record suffix upserted on top.
func openJournal(dir string) (*walJournal, []*dfs.FileMeta, error) {
	log, err := wal.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("svc: open wal %s: %w", dir, err)
	}
	files, err := replayNamespace(log)
	if err != nil {
		_ = log.Close()
		return nil, nil, err
	}
	return &walJournal{log: log}, files, nil
}

// replayNamespace folds snapshot + records into a sorted file list.
func replayNamespace(log *wal.Log) ([]*dfs.FileMeta, error) {
	table := make(map[string]*dfs.FileMeta)
	if snap, seq := log.Snapshot(); seq > 0 {
		if snap == nil {
			return nil, fmt.Errorf("svc: wal snapshot at seq %d is unreadable: %w", seq, wal.ErrCorrupt)
		}
		var s walSnapshot
		if err := json.Unmarshal(snap, &s); err != nil {
			return nil, fmt.Errorf("svc: decode wal snapshot at seq %d: %w", seq, err)
		}
		for _, fm := range s.Files {
			if fm == nil {
				return nil, fmt.Errorf("svc: wal snapshot at seq %d holds a null file: %w", seq, wal.ErrCorrupt)
			}
			table[fm.Name] = fm
		}
	}
	err := log.Replay(func(seq uint64, rec []byte) error {
		var r walRecord
		if err := json.Unmarshal(rec, &r); err != nil {
			return fmt.Errorf("svc: decode wal record %d: %w", seq, err)
		}
		switch r.Kind {
		case "create":
			if r.File == nil || r.File.Name != r.Name {
				return fmt.Errorf("svc: wal record %d: create without the file it names: %w", seq, wal.ErrCorrupt)
			}
			table[r.Name] = r.File
		case "delete":
			delete(table, r.Name)
		case "blocks":
			// A blocks record for an absent file is legal: it can sit
			// in the snapshot/suffix overlap window after the file's
			// delete was already folded into the snapshot. Upsert
			// semantics make it a no-op.
			if fm, ok := table[r.Name]; ok {
				fm.Blocks = r.Blocks
			}
		default:
			return fmt.Errorf("svc: wal record %d has unknown kind %q: %w", seq, r.Kind, wal.ErrCorrupt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	files := make([]*dfs.FileMeta, 0, len(table))
	for _, name := range sortedKeys(table) {
		files = append(files, table[name])
	}
	return files, nil
}

func sortedKeys(m map[string]*dfs.FileMeta) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	img := s.nn.FilesImageShard(i)
	state, err := json.Marshal(walSnapshot{Files: img})
	if err != nil {
		return fmt.Errorf("svc: encode wal snapshot: %w", err)
	}
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
