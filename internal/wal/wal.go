// Package wal is the write-ahead log backing the durable NameNode:
// a CRC32-framed, fsync-on-commit record log written into
// preallocated segments, with periodic snapshots and log truncation.
//
// Layout. A log directory holds segment files `seg-<NNN>.log` and
// snapshot files `snap-<NNN>.snap`, where NNN is a zero-padded
// sequence number. A segment named seg-N holds records N+1, N+2, …
// in order; a snapshot named snap-N captures the application state
// after applying records 1..N. Records and snapshots share one frame
// format: a 4-byte big-endian payload length, a 4-byte big-endian
// CRC32 (IEEE) of the payload, then the payload. A payload is never
// empty: the CRC32 of nothing is 0, so eight zero bytes would
// otherwise decode as a record nobody wrote.
//
// Preallocation. The segment being appended to is zero-filled ahead
// of its last record, one stretch of segmentStretch bytes at a time,
// and each frame is written in place at the end of the valid frames.
// An append therefore never changes the file's size, and its fsync
// commits only data, not an inode-size update as well. A frame that
// would cross the end of the fill first extends it by another
// stretch. A segment that stops being appended to (rotation, Close)
// is cut back to its valid frames and synced before anything else
// happens, so every segment but the newest is exactly its records.
//
// Durability contract. Append writes the frame and fsyncs before
// returning, so a record whose Append returned nil survives any
// crash. SaveSnapshot writes the snapshot to a temp file, fsyncs it,
// renames it into place, and fsyncs the directory, then rotates to a
// fresh segment and prunes files the snapshot covers — a crash at any
// point leaves either the old or the new snapshot durable, never a
// torn one. Seq, SnapshotSeq and RecordsSinceSnapshot read counters
// published after the fsync, without the log's lock, so they never
// wait for an append in flight.
//
// Torn tails. A crash mid-Append can leave a partial frame at the end
// of the newest segment's valid frames, and a crash at any time
// leaves the newest segment's zero fill behind them. Because appends
// are sequential and fsync'd, a torn frame can only be the last thing
// written, and the zero fill reads as an invalid (empty) frame; Open
// cuts the final segment at its first invalid frame, replays
// everything before it, and preallocates again. The dropped record
// was never acknowledged. An invalid frame in any non-final segment
// is real corruption and Open fails with ErrCorrupt rather than
// silently dropping acknowledged records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrClosed marks appends or snapshots on a log that was closed or
	// abandoned (Crash), or that failed a durability write (a log that
	// cannot promise durability refuses further work).
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt marks a log directory whose non-tail contents fail
	// validation: a bad frame before the final segment's tail, a
	// missing segment in the chain, or a gap between the newest
	// snapshot and the oldest remaining segment.
	ErrCorrupt = errors.New("wal: log corrupt")
)

// MaxRecordSize bounds a single record or snapshot payload. Frames
// declaring more are treated as torn (tail) or corrupt (interior).
const MaxRecordSize = 64 << 20

const frameHeader = 8 // 4-byte length + 4-byte CRC32

// segmentStretch is how far the active segment is zero-filled ahead
// of its valid frames, and how much more it grows by when a frame
// would cross the end of the fill.
const segmentStretch = 256 << 10

// zeros is one write of the fill in a segment's preallocated stretch.
// The fill goes out a page per write: the page cache may size a folio
// by the write that creates it, so one stretch-sized write can make a
// folio that every later append dirties, and every fsync writes back,
// whole.
var zeros [4 << 10]byte

// AppendFaults lets a test's fault injector interpose on the
// physical append. BeforeAppend sees the encoded frame and
// returns how many bytes of it to actually write; a non-nil error
// fails the append after writing that prefix and permanently breaks
// the log handle, simulating a crash mid-write with a torn record on
// disk.
type AppendFaults interface {
	BeforeAppend(frame []byte) (int, error)
}

// Log is a single-writer write-ahead log rooted at a directory. All
// methods are safe for concurrent use. It keeps no record or snapshot
// bytes in memory: Replay and Snapshot read them back from the files.
type Log struct {
	mu  sync.Mutex
	dir string
	f   *os.File // active segment
	off int64    // end of the active segment's valid frames
	end int64    // size of the active segment; off..end is zero fill
	// seq is the sequence of the last appended record and snapSeq the
	// sequence covered by the newest snapshot (0 = none). Both change
	// only under mu, and are read without it.
	seq     atomic.Uint64
	snapSeq atomic.Uint64
	faults  AppendFaults
	broken  bool // a durability write failed or Crash was called
	closed  bool
}

// Open opens (creating if needed) the log directory, validates its
// contents, truncates a torn tail if the last writer crashed
// mid-append, and leaves the log ready to append record seq+1.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	if err := removeSnapshotTemps(dir); err != nil {
		return nil, err
	}
	snaps, segs, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	snapSeq := newestSnapshot(dir, snaps)
	seq, validLen, err := walkChain(readFrom(dir), segs, snapSeq, nil)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir}
	l.seq.Store(seq)
	l.snapSeq.Store(snapSeq)
	if len(segs) == 0 {
		// No segment: start a fresh one at the current seq.
		err = l.openSegment(segName(seq), 0, true)
	} else {
		err = l.openSegment(segs[len(segs)-1].name, int64(validLen), false)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

type seqFile struct {
	seq  uint64
	name string
}

func listDir(dir string) (snaps, segs []seqFile, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	for _, e := range ents {
		name := e.Name()
		if n, ok := parseSeqName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seqFile{seq: n, name: name})
		} else if n, ok := parseSeqName(name, "seg-", ".log"); ok {
			segs = append(segs, seqFile{seq: n, name: name})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return snaps, segs, nil
}

func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%020d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.snap", seq) }

// newestSnapshot returns the sequence of the newest decodable
// snapshot, 0 when there is none. A snapshot torn by a crash mid-write
// never got renamed into place, so a .snap file failing to decode is
// unexpected — but we fall back to an older one rather than refuse to
// start.
func newestSnapshot(dir string, snaps []seqFile) uint64 {
	for i := len(snaps) - 1; i >= 0; i-- {
		if _, ok := readSnapshot(dir, snaps[i].seq); ok {
			return snaps[i].seq
		}
	}
	return 0
}

// readSnapshot reads and decodes the snapshot covering records 1..seq.
func readSnapshot(dir string, seq uint64) ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(dir, snapName(seq)))
	if err != nil {
		return nil, false
	}
	payload, n, ok := decodeFrame(data)
	return payload, ok && n == len(data)
}

// readFrom reads files of dir by name: the segment source walkChain
// takes on disk.
func readFrom(dir string) func(name string) ([]byte, error) {
	return func(name string) ([]byte, error) { return os.ReadFile(filepath.Join(dir, name)) }
}

// walkChain is the one segment-chain walk behind Open and Replay, over
// the bytes read returns for each segment's name. It skips segments
// the snapshot at snapSeq fully covers (prune leftovers from a crash
// between snapshot rename and file removal), requires every later
// segment to continue where the previous one ended, and hands fn (when
// non-nil) each record newer than snapSeq. An invalid
// frame ends a final segment (a torn tail) and is ErrCorrupt in any
// other. It returns the sequence of the last record walked and the
// length of the final segment's valid prefix.
func walkChain(read func(name string) ([]byte, error), segs []seqFile, snapSeq uint64, fn func(seq uint64, rec []byte) error) (seq uint64, validLen int, err error) {
	seq = snapSeq
	scanning := false
	for i, sg := range segs {
		last := i == len(segs)-1
		if !scanning {
			if !last && segs[i+1].seq <= snapSeq {
				continue
			}
			if sg.seq > snapSeq {
				return 0, 0, fmt.Errorf("%w: segment %s starts after snapshot seq %d", ErrCorrupt, sg.name, snapSeq)
			}
			scanning = true
			seq = sg.seq
		} else if sg.seq != seq {
			return 0, 0, fmt.Errorf("%w: segment %s does not continue from seq %d", ErrCorrupt, sg.name, seq)
		}
		data, err := read(sg.name)
		if err != nil {
			return 0, 0, fmt.Errorf("wal: read %s: %w", sg.name, err)
		}
		off := 0
		for off < len(data) {
			rec, n, ok := decodeFrame(data[off:])
			if !ok {
				break
			}
			off += n
			seq++
			if fn != nil && seq > snapSeq {
				if err := fn(seq, rec); err != nil {
					return seq, off, err
				}
			}
		}
		if off < len(data) && !last {
			return 0, 0, fmt.Errorf("%w: invalid frame at %s offset %d", ErrCorrupt, sg.name, off)
		}
		validLen = off
	}
	return seq, validLen, nil
}

// openSegment makes name (created when create is set) the active
// segment, with its valid frames ending at validLen. Whatever lies
// past them, a torn frame or the zero fill a crash left, is cut off
// so the next append starts a clean record boundary; then a fresh
// stretch of zeros is written behind them and the file synced, and a
// created file's directory entry too.
func (l *Log) openSegment(name string, validLen int64, create bool) error {
	flag := os.O_RDWR // not O_APPEND: frames go in place, and WriteAt refuses an O_APPEND file
	if create {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(filepath.Join(l.dir, name), flag, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	err = f.Truncate(validLen)
	if err == nil {
		err = zeroFill(f, validLen, validLen+segmentStretch)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil && create {
		err = syncDir(l.dir)
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: preallocate segment %s: %w", name, err)
	}
	l.f, l.off, l.end = f, validLen, validLen+segmentStretch
	return nil
}

// zeroFill writes zeros over f's bytes from..to.
func zeroFill(f *os.File, from, to int64) error {
	for from < to {
		n := min(to-from, int64(len(zeros)))
		if _, err := f.WriteAt(zeros[:n], from); err != nil {
			return err
		}
		from += n
	}
	return nil
}

// reserve makes the active segment's zero fill reach at least need
// bytes, extending it a stretch at a time. The caller's fsync makes
// the new size durable; until then a crash leaves the old fill.
func (l *Log) reserve(need int64) error {
	end := l.end
	for end < need {
		end += segmentStretch
	}
	if err := zeroFill(l.f, l.end, end); err != nil {
		return err
	}
	l.end = end
	return nil
}

// closeSegment cuts the active segment back to its valid frames,
// syncs it and closes it: a segment nobody appends to any more holds
// exactly its records.
func (l *Log) closeSegment() error {
	err := l.f.Truncate(l.off)
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFrame encodes one record frame onto dst.
func appendFrame(dst, rec []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
	dst = append(dst, hdr[:]...)
	return append(dst, rec...)
}

// decodeFrame decodes one frame from the start of data, returning the
// payload, the bytes consumed, and whether the frame was valid. An
// empty payload is invalid: no writer produces one.
func decodeFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeader {
		return nil, 0, false
	}
	size := binary.BigEndian.Uint32(data[0:4])
	if size == 0 || size > MaxRecordSize || int(size) > len(data)-frameHeader {
		return nil, 0, false
	}
	payload = data[frameHeader : frameHeader+int(size)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(size), true
}

// SetFaults installs an append-fault injector (nil disables).
//
//lint:ignore deadcode fault injection: svc's TestJournalFailureVetoesMutation fails every append and TestStalledShardAppendDoesNotStallOtherShards stalls one
func (l *Log) SetFaults(f AppendFaults) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = f
}

// Append durably commits one record: the frame is written and fsync'd
// before Append returns. On any write or sync failure the log breaks
// permanently (ErrClosed thereafter) — a handle that cannot promise
// durability must not keep acknowledging.
func (l *Log) Append(rec []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.broken {
		return 0, ErrClosed
	}
	if len(rec) == 0 || len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes is empty or exceeds MaxRecordSize", len(rec))
	}
	frame := appendFrame(nil, rec)
	if err := l.reserve(l.off + int64(len(frame))); err != nil {
		l.breakHandle()
		return 0, fmt.Errorf("wal: append preallocate: %w", err)
	}
	if l.faults != nil {
		if n, err := l.faults.BeforeAppend(frame); err != nil {
			if n > len(frame) {
				n = len(frame)
			}
			if n > 0 {
				_, _ = l.f.WriteAt(frame[:n], l.off) // the torn write the crash leaves behind
			}
			l.breakHandle()
			return 0, fmt.Errorf("wal: append fault: %w", err)
		}
	}
	if _, err := l.f.WriteAt(frame, l.off); err != nil {
		l.breakHandle()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.breakHandle()
		return 0, fmt.Errorf("wal: append sync: %w", err)
	}
	l.off += int64(len(frame))
	return l.seq.Add(1), nil
}

// SaveSnapshot durably stores application state that reflects records
// 1..upTo, rotates to a fresh segment, and prunes files the snapshot
// covers. upTo is typically read from Seq() immediately *before*
// capturing the state; records appended during capture simply replay
// on top (the application's replay must be idempotent, which the
// NameNode's full-state records guarantee).
func (l *Log) SaveSnapshot(state []byte, upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.broken {
		return ErrClosed
	}
	seq := l.seq.Load()
	if upTo > seq {
		return fmt.Errorf("wal: snapshot seq %d ahead of log seq %d", upTo, seq)
	}
	if upTo <= l.snapSeq.Load() {
		return nil // an older snapshot already covers this
	}
	if len(state) == 0 {
		return fmt.Errorf("wal: empty snapshot state")
	}
	if err := writeFileDurably(l.dir, snapName(upTo), appendFrame(nil, state)); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	// Rotate: the next record (seq+1) opens a fresh segment, so the
	// prune below can retire everything the snapshot covers.
	if err := l.closeSegment(); err != nil {
		l.broken = true
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.openSegment(segName(seq), 0, true); err != nil {
		l.broken = true
		return err
	}
	l.snapSeq.Store(upTo)
	l.prune()
	return nil
}

// removeSnapshotTemps deletes the snapshot temp files (snap-N.snap.tmp)
// in dir. A crash between a snapshot's create and its rename leaves
// one, and nothing ever reads it.
func removeSnapshotTemps(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: read dir %s: %w", dir, err)
	}
	for _, e := range ents {
		if _, ok := parseSeqName(e.Name(), "snap-", ".snap.tmp"); ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("wal: remove stale snapshot: %w", err)
			}
		}
	}
	return nil
}

// prune removes snapshots older than the current one and segments
// whose every record the current snapshot covers. Failures are
// ignored: leftovers are skipped on the next Open and retried on the
// next snapshot.
func (l *Log) prune() {
	snaps, segs, err := listDir(l.dir)
	if err != nil {
		return
	}
	snapSeq := l.snapSeq.Load()
	for _, s := range snaps {
		if s.seq < snapSeq {
			_ = os.Remove(filepath.Join(l.dir, s.name))
		}
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= snapSeq {
			_ = os.Remove(filepath.Join(l.dir, segs[i].name))
		}
	}
}

// writeFileDurably replaces dir/name with data: temp file (name.tmp),
// fsync, rename, directory fsync, so a crash leaves either the old file
// or the complete new one. It writes every whole file of a root:
// snapshots, the manifest and marks. A failure before the rename
// removes the temp file, so a write that keeps failing leaves nothing
// behind.
func writeFileDurably(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("wal: close dir: %w", err)
	}
	return nil
}

// Snapshot reads back the newest snapshot payload and returns it with
// the sequence it covers: (nil, 0) when none exists, and a nil payload
// beside a non-zero sequence when the file can no longer be read.
func (l *Log) Snapshot() ([]byte, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	snapSeq := l.snapSeq.Load()
	if snapSeq == 0 {
		return nil, 0
	}
	payload, _ := readSnapshot(l.dir, snapSeq)
	return payload, snapSeq
}

// Replay reads back every record newer than the snapshot and invokes
// fn for each, oldest first. fn runs without the log lock held
// and may keep rec; records appended concurrently with Replay may or
// may not be included.
func (l *Log) Replay(fn func(seq uint64, rec []byte) error) error {
	type record struct {
		seq uint64
		rec []byte
	}
	var recs []record
	l.mu.Lock()
	_, segs, err := listDir(l.dir)
	if err == nil {
		_, _, err = walkChain(readFrom(l.dir), segs, l.snapSeq.Load(), func(seq uint64, rec []byte) error {
			recs = append(recs, record{seq, rec})
			return nil
		})
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := fn(r.seq, r.rec); err != nil {
			return err
		}
	}
	return nil
}

// Seq returns the sequence number of the last committed record. It
// never waits for an append in flight.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// SnapshotSeq returns the sequence the newest snapshot covers. It
// never waits for an append in flight.
func (l *Log) SnapshotSeq() uint64 { return l.snapSeq.Load() }

// RecordsSinceSnapshot reports how many committed records the newest
// snapshot does not cover — the replay cost of a crash right now. It
// never waits for an append in flight; snapSeq is read first, so a
// snapshot that lands between the two reads cannot push it past seq.
func (l *Log) RecordsSinceSnapshot() uint64 {
	snapSeq := l.snapSeq.Load()
	return l.seq.Load() - snapSeq
}

// Close cleanly shuts the log: the active segment is cut back to its
// valid frames and synced, the file closed, further appends rejected.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.broken {
		return nil // the breaking path already closed the file
	}
	if err := l.closeSegment(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Crash abandons the log the way SIGKILL would: the file handle is
// closed without a final sync or cutting the zero fill off, and every
// later Append fails with ErrClosed. Already-committed records are
// durable (Append fsyncs);
// in-flight handlers racing a simulated restart cannot write into the
// directory the new incarnation now owns.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.broken {
		return
	}
	l.breakHandle()
}

// breakHandle breaks the log for good and closes the active segment:
// a handle that cannot promise durability neither appends again nor
// holds its descriptor. Rotation's failures need only the flag, since
// closeSegment and openSegment close what they opened.
func (l *Log) breakHandle() {
	l.broken = true
	_ = l.f.Close()
}
