package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func collect(t *testing.T, l *Log) []string {
	t.Helper()
	var out []string
	err := l.Replay(func(seq uint64, rec []byte) error {
		out = append(out, fmt.Sprintf("%d:%s", seq, rec))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func appendN(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if _, err := l.Append([]byte(r)); err != nil {
			t.Fatalf("append %q: %v", r, err)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyDirRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open empty dir: %v", err)
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("expected no records, got %v", got)
	}
	if l.Seq() != 0 {
		t.Fatalf("seq = %d, want 0", l.Seq())
	}
	if snap, seq := l.Snapshot(); snap != nil || seq != 0 {
		t.Fatalf("expected no snapshot, got %q at %d", snap, seq)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Opening again is still fine: an empty segment exists now.
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	appendN(t, l2, "a")
	if got := collect(t, l2); !equal(got, []string{"1:a"}) {
		t.Fatalf("got %v", got)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "create /a", "create /b", "delete /a")
	want := []string{"1:create /a", "2:create /b", "3:delete /a"}
	if got := collect(t, l); !equal(got, want) {
		t.Fatalf("live replay = %v, want %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := collect(t, l2); !equal(got, want) {
		t.Fatalf("recovered replay = %v, want %v", got, want)
	}
	if l2.Seq() != 3 {
		t.Fatalf("recovered seq = %d, want 3", l2.Seq())
	}
	// Appends continue the sequence after recovery; an empty record,
	// which would frame as the zeros a crash can leave, is refused.
	seq, err := l2.Append([]byte("create /c"))
	if err != nil || seq != 4 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
	if _, err := l2.Append(nil); err == nil || l2.Seq() != 4 {
		t.Fatalf("empty record: err=%v, seq=%d", err, l2.Seq())
	}
}

// TestDoubleReplayIdempotence: Replay is repeatable — two passes over
// the same log yield identical sequences, live and after reopen.
func TestDoubleReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "x", "y", "z")
	first := collect(t, l)
	second := collect(t, l)
	if !equal(first, second) {
		t.Fatalf("replays differ: %v vs %v", first, second)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !equal(got, first) {
		t.Fatalf("post-reopen replay %v != live replay %v", got, first)
	}
}

func segPath(t *testing.T, dir string) string {
	t.Helper()
	_, segs, err := listDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("list segments: %v (%d found)", err, len(segs))
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "one", "two", "three")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop the last record's frame in
	// half.
	path := segPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tornAt := len(data) - (frameHeader+len("three"))/2
	if err := os.WriteFile(path, data[:tornAt], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	want := []string{"1:one", "2:two"}
	if got := collect(t, l2); !equal(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	// The torn record's slot is reused: the log stays contiguous.
	seq, err := l2.Append([]byte("three'"))
	if err != nil || seq != 3 {
		t.Fatalf("append after torn tail: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	want = []string{"1:one", "2:two", "3:three'"}
	if got := collect(t, l3); !equal(got, want) {
		t.Fatalf("final replay = %v, want %v", got, want)
	}
}

func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "aaaa", "bbbb", "cccc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupting an interior record is only distinguishable from a
	// torn tail when the damage is in a non-final segment, so build
	// one: snapshot-free rotation isn't exposed, so instead corrupt
	// the snapshot chain — flip a byte inside the first record and
	// expect everything after the tear to be dropped (torn-tail rule),
	// then verify acknowledged-loss is at least detected via seq.
	path := segPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+1] ^= 0xFF // payload byte of record 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	// Within the final segment the first bad frame is the assumed
	// crash point; the log must not hallucinate records past it.
	if got := collect(t, l2); len(got) != 0 {
		t.Fatalf("replayed through corruption: %v", got)
	}
	if l2.Seq() != 0 {
		t.Fatalf("seq = %d, want 0", l2.Seq())
	}
}

func TestCorruptNonFinalSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "aaaa", "bbbb", "cccc", "dddd")
	// Snapshot *behind* the segment's last record: rotation creates a
	// second segment, but the first (records 1-4 > snapSeq 2) is not
	// prunable and stays in the replay chain.
	if err := l.SaveSnapshot([]byte("state@2"), 2); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "eeee", "ffff")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments after rotation, got %+v", segs)
	}
	first := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the third record of the non-final
	// segment: that is real corruption, not a torn tail, and Open
	// must refuse rather than drop acknowledged records 3-6.
	off := 2 * (frameHeader + len("aaaa"))
	data[off+frameHeader] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotAndPartialLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "r1", "r2", "r3")
	if err := l.SaveSnapshot([]byte("state@3"), 3); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	appendN(t, l, "r4", "r5")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	snap, seq := l2.Snapshot()
	if string(snap) != "state@3" || seq != 3 {
		t.Fatalf("snapshot = %q @ %d, want state@3 @ 3", snap, seq)
	}
	want := []string{"4:r4", "5:r5"}
	if got := collect(t, l2); !equal(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if l2.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", l2.Seq())
	}
	// Tear the post-snapshot tail too: only r4 survives.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := collect(t, l3); !equal(got, []string{"4:r4"}) {
		t.Fatalf("replay after torn post-snapshot tail = %v", got)
	}
}

func TestSnapshotTruncatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendN(t, l, fmt.Sprintf("rec-%d", i))
	}
	if err := l.SaveSnapshot([]byte("state@10"), 10); err != nil {
		t.Fatal(err)
	}
	if l.RecordsSinceSnapshot() != 0 {
		t.Fatalf("records since snapshot = %d, want 0", l.RecordsSinceSnapshot())
	}
	snaps, segs, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", len(snaps))
	}
	// Only the fresh (empty) active segment should remain.
	if len(segs) != 1 || segs[0].seq != 10 {
		t.Fatalf("segments = %+v, want single seg at 10", segs)
	}
	// A second snapshot at an older seq is a no-op, not a regression.
	if err := l.SaveSnapshot([]byte("stale"), 5); err != nil {
		t.Fatal(err)
	}
	if snap, seq := l.Snapshot(); string(snap) != "state@10" || seq != 10 {
		t.Fatalf("snapshot regressed to %q @ %d", snap, seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSnapshotLeavesNoTempFile: a snapshot whose rename fails
// (its final name is a non-empty directory) removes its temp file, and
// the log keeps working and can snapshot again.
func TestFailedSnapshotLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "a", "b")
	blocker := filepath.Join(dir, snapName(2))
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveSnapshot([]byte("state@2"), 2); err == nil {
		t.Fatal("snapshot renamed over a non-empty directory")
	}
	if _, err := os.Stat(blocker + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed snapshot left its temp file: %v", err)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "c")
	if err := l.SaveSnapshot([]byte("state@3"), 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRemovesStaleSnapshotTemp: a temp file a crash left between a
// snapshot's create and its rename is deleted by the next Open, and
// the log replays as if it was never there.
func TestOpenRemovesStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "a", "b")
	l.Crash()
	stale := filepath.Join(dir, snapName(2)+".tmp")
	if err := os.WriteFile(stale, appendFrame(nil, []byte("torn")), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale snapshot temp survived Open: %v", err)
	}
	if got := collect(t, l); !equal(got, []string{"1:a", "2:b"}) || l.SnapshotSeq() != 0 {
		t.Fatalf("replay = %v, snapshot seq %d; want [1:a 2:b], 0", got, l.SnapshotSeq())
	}
}

type crashAfter struct {
	n         int // appends to allow before crashing
	tornBytes int // bytes of the fatal frame to leave on disk
}

func (c *crashAfter) BeforeAppend(frame []byte) (int, error) {
	if c.n > 0 {
		c.n--
		return len(frame), nil
	}
	return c.tornBytes, errors.New("injected crash")
}

func TestAppendFaultTearsAndBreaks(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.SetFaults(&crashAfter{n: 2, tornBytes: 5})
	appendN(t, l, "ok-1", "ok-2")
	if _, err := l.Append([]byte("never-acked")); err == nil {
		t.Fatal("expected injected crash")
	}
	// The handle is dead now.
	if _, err := l.Append([]byte("more")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on broken log = %v, want ErrClosed", err)
	}
	// Recovery sees the two acknowledged records; the torn 5-byte
	// prefix of the third is discarded.
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("recover after fault: %v", err)
	}
	defer l2.Close()
	want := []string{"1:ok-1", "2:ok-2"}
	if got := collect(t, l2); !equal(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
}

func TestCrashAbandonsHandle(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "acked")
	l.Crash()
	if _, err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after crash = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !equal(got, []string{"1:acked"}) {
		t.Fatalf("replay = %v", got)
	}
}

func TestSnapshotUpToBehindConcurrentAppends(t *testing.T) {
	// The snapshot cadence reads Seq() *before* capturing state; any
	// records committed in between stay in the replay suffix.
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "a", "b")
	upTo := l.Seq()
	appendN(t, l, "c") // races the state capture in real usage
	if err := l.SaveSnapshot([]byte("state@2"), upTo); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); !equal(got, []string{"3:c"}) {
		t.Fatalf("replay suffix = %v, want [3:c]", got)
	}
}

func TestBinaryRecordsSurvive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 4096)
	for i := range rec {
		rec[i] = byte(i * 31)
	}
	if _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []byte
	if err := l2.Replay(func(_ uint64, r []byte) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatal("binary record mangled by round trip")
	}
}

// blockAppend parks every Append inside BeforeAppend, where the log's
// lock is held, until release is closed; entered is closed when the
// first Append arrives.
type blockAppend struct {
	entered, release chan struct{}
	once             sync.Once
}

func newBlockAppend() *blockAppend {
	return &blockAppend{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockAppend) BeforeAppend(frame []byte) (int, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return len(frame), nil
}

// TestCountersDoNotWaitForAppend: an Append stalled while it holds
// the log's lock (as one waiting out a slow fsync does) does not hold
// up Seq, SnapshotSeq or RecordsSinceSnapshot, which the durable
// NameNode reads on every shard after every mutation.
func TestCountersDoNotWaitForAppend(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "a", "b")
	if err := l.SaveSnapshot([]byte("state@1"), 1); err != nil {
		t.Fatal(err)
	}
	b := newBlockAppend()
	release := sync.OnceFunc(func() { close(b.release) })
	defer release()
	l.SetFaults(b)
	done := make(chan error, 1)
	go func() {
		_, err := l.Append([]byte("c"))
		done <- err
	}()
	<-b.entered

	got := make(chan [3]uint64, 1)
	go func() { got <- [3]uint64{l.Seq(), l.SnapshotSeq(), l.RecordsSinceSnapshot()} }()
	select {
	case g := <-got:
		if g != [3]uint64{2, 1, 1} {
			t.Fatalf("seq, snapshot seq, records since snapshot = %v during the append, want [2 1 1]", g)
		}
	case <-time.After(time.Second):
		t.Fatal("the log's counters waited for an append in flight")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 3 || l.RecordsSinceSnapshot() != 2 {
		t.Fatalf("after the append: seq %d, records since snapshot %d; want 3, 2", l.Seq(), l.RecordsSinceSnapshot())
	}
}

// frameLen is the on-disk size of the frames of recs.
func frameLen(recs ...string) int64 {
	var n int64
	for _, r := range recs {
		n += int64(frameHeader + len(r))
	}
	return n
}

// fileSize is the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCrashLeavesZeroFill: a log abandoned without Close keeps its
// segment's preallocated zero fill behind the valid frames, the way a
// SIGKILL leaves it. Open replays exactly the acknowledged records,
// the next Append continues the sequence, and that record survives a
// second crash.
func TestCrashLeavesZeroFill(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []string{"one", "two", "three"}
	appendN(t, l, recs...)
	l.Crash()
	path := segPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	valid := frameLen(recs...)
	if int64(len(data)) != segmentStretch || !bytes.Equal(data[valid:], make([]byte, segmentStretch-valid)) {
		t.Fatalf("crashed segment: %d bytes, want %d with zeros after the %d valid ones", len(data), segmentStretch, valid)
	}

	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); !equal(got, []string{"1:one", "2:two", "3:three"}) {
		t.Fatalf("replay after crash = %v", got)
	}
	if seq, err := l.Append([]byte("four")); err != nil || seq != 4 {
		t.Fatalf("append after crash: seq=%d err=%v, want 4", seq, err)
	}
	l.Crash()
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l); !equal(got, []string{"1:one", "2:two", "3:three", "4:four"}) || l.Seq() != 4 {
		t.Fatalf("replay after second crash = %v, seq %d", got, l.Seq())
	}
}

// TestTornFrameInPreallocatedStretch: a frame torn by an append fault
// lies inside the zero fill, not at the end of the file, and Open
// still drops it and appends over it.
func TestTornFrameInPreallocatedStretch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.SetFaults(&crashAfter{n: 2, tornBytes: frameHeader + 3})
	appendN(t, l, "ok-1", "ok-2")
	if _, err := l.Append([]byte("never-acked")); err == nil {
		t.Fatal("expected injected crash")
	}
	path := segPath(t, dir)
	if size := fileSize(t, path); size != segmentStretch {
		t.Fatalf("segment after the torn append: %d bytes, want the %d-byte stretch", size, segmentStretch)
	}
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); !equal(got, []string{"1:ok-1", "2:ok-2"}) {
		t.Fatalf("replay = %v, want the two acknowledged records", got)
	}
	appendN(t, l, "ok-3")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(t, path); size != frameLen("ok-1", "ok-2", "ok-3") {
		t.Fatalf("closed segment: %d bytes, want exactly its three frames", size)
	}
}

// TestRotationCutsSegmentToValidLength: after SaveSnapshot rotates,
// the segment left behind holds exactly its frames, no zero fill.
func TestRotationCutsSegmentToValidLength(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := []string{"aaaa", "bbbb", "cccc", "dddd"}
	appendN(t, l, recs...)
	// A snapshot behind the last record keeps seg-0 in the chain.
	if err := l.SaveSnapshot([]byte("state@2"), 2); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(t, filepath.Join(dir, segName(0))); size != frameLen(recs...) {
		t.Fatalf("rotated-out segment: %d bytes, want its valid %d", size, frameLen(recs...))
	}
	if size := fileSize(t, filepath.Join(dir, segName(4))); size != segmentStretch {
		t.Fatalf("new segment: %d bytes, want the %d-byte stretch", size, segmentStretch)
	}
}

// TestZeroTailInNonFinalSegmentIsCorrupt: zeros are a torn tail only
// in the final segment; a non-final segment never keeps its fill, so
// zeros after its frames are corruption.
func TestZeroTailInNonFinalSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "aaaa", "bbbb", "cccc", "dddd")
	if err := l.SaveSnapshot([]byte("state@2"), 2); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "eeee")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
}

// TestRecordLargerThanStretch: a frame that would cross the end of
// the zero fill extends it first, and it and the records around it
// round-trip through a crash.
func TestRecordLargerThanStretch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), segmentStretch/16+7)
	appendN(t, l, "before", string(big), "after")
	if size := fileSize(t, segPath(t, dir)); size <= frameLen("before", string(big), "after") || size%segmentStretch != 0 {
		t.Fatalf("segment after a %d-byte record: %d bytes, want whole stretches past its frames", len(big), size)
	}
	l.Crash()
	l, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []string{"1:before", "2:" + string(big), "3:after"}
	if got := collect(t, l); !equal(got, want) {
		t.Fatalf("replay after crash: %d records, want the 3 written intact", len(got))
	}
}

// TestBrokenLogClosesItsFile: an append whose write fails breaks the
// log and closes the active segment then, so Close on the broken log
// leaks no descriptor.
func TestBrokenLogClosesItsFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "acked")
	rw := l.f
	ro, err := os.Open(rw.Name())
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro // WriteAt on a read-only handle fails
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("refused")); err == nil {
		t.Fatal("an append on a read-only segment succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close of a broken log: %v", err)
	}
	if err := ro.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("the broken log's segment was still open after Close (closing it now: %v)", err)
	}
}

// TestAppendWritesBackOnlyItsPages: a durable append costs the storage
// layer about the pages its frame touched, not the stretch of zero
// fill around them. The count is the process's write_bytes, which the
// kernel charges by the dirtied folio, so a fill written in one
// stretch-sized write charges the whole stretch to every append.
func TestAppendWritesBackOnlyItsPages(t *testing.T) {
	if _, err := writeBytes(); err != nil {
		t.Skipf("no per-process write accounting: %v", err)
	}
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := bytes.Repeat([]byte("r"), 180)
	const appends = 200
	before, _ := writeBytes()
	for i := 0; i < appends; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	after, err := writeBytes()
	if err != nil {
		t.Fatal(err)
	}
	per := (after - before) / appends
	t.Logf("%d bytes written back per %d-byte append", per, len(rec))
	if per > 16<<10 {
		t.Fatalf("%d bytes written back per %d-byte append, want at most %d", per, len(rec), 16<<10)
	}
}

// writeBytes reads the process's write_bytes from /proc/self/io.
func writeBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, errors.New("no write_bytes line in /proc/self/io")
}
