package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/adaptsim/adapt/internal/shard"
)

// rootLayout lists what lies directly under root: "name/" for a
// directory, "name" for a file.
func rootLayout(t *testing.T, root string) []string {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		}
		out = append(out, name)
	}
	return out
}

// TestShardDirsOneLayoutForEveryCount: a new root at any count holds
// SHARDS and shard-NNN/ and nothing else, 0 making a one-shard root,
// and no log file ever lies directly under it.
func TestShardDirsOneLayoutForEveryCount(t *testing.T) {
	for _, p := range []int{0, 1, 4} {
		root := t.TempDir()
		dirs, err := ShardDirs(root, p)
		if err != nil {
			t.Fatal(err)
		}
		want := max(p, 1)
		if len(dirs) != want {
			t.Fatalf("P %d: %d dirs, want %d", p, len(dirs), want)
		}
		layout := []string{manifestName}
		for i := 0; i < want; i++ {
			if d := filepath.Join(root, fmt.Sprintf("shard-%03d", i)); dirs[i] != d {
				t.Fatalf("P %d: dirs[%d] = %s, want %s", p, i, dirs[i], d)
			}
			layout = append(layout, fmt.Sprintf("shard-%03d/", i))
		}
		if got := rootLayout(t, root); !equal(got, layout) {
			t.Fatalf("P %d: root holds %v, want %v", p, got, layout)
		}
		if n, ok, err := readManifest(root); err != nil || !ok || n != want {
			t.Fatalf("P %d: manifest = %d, %v, %v; want %d", p, n, ok, err, want)
		}
		l, err := Open(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, "x")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := rootLayout(t, root); !equal(got, layout) {
			t.Fatalf("P %d: after an append root holds %v, want %v", p, got, layout)
		}
	}
}

func TestShardDirsCreatesAndReopens(t *testing.T) {
	root := t.TempDir()
	dirs, err := ShardDirs(root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 4 {
		t.Fatalf("got %d dirs, want 4", len(dirs))
	}
	if want := filepath.Join(root, "shard-002"); dirs[2] != want {
		t.Fatalf("dirs[2] = %s, want %s", dirs[2], want)
	}
	// Each shard dir is an independent, openable log.
	for _, d := range dirs {
		l, err := Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Reopening with the same count, or with 0, is fine.
	for _, p := range []int{4, 0} {
		again, err := ShardDirs(root, p)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(again, dirs) {
			t.Fatalf("reopen at %d: dirs = %v, want %v", p, again, dirs)
		}
	}
}

func TestShardDirsRefusesReshard(t *testing.T) {
	root := t.TempDir()
	if _, err := ShardDirs(root, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := ShardDirs(root, 8); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("4->8 reshard err = %v, want ErrShardMismatch", err)
	}
	if _, err := ShardDirs(root, 1); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("4->1 reshard err = %v, want ErrShardMismatch", err)
	}
}

// flatRoot lays a single-shard log out the way it was written before
// every root had a manifest: segments, a snapshot and a temp file a
// crash mid-snapshot left, directly under root, and a BLOCKIDS mark
// beside them. Replay from it yields flatState and then flatRecords.
func flatRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	l, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "r1", "r2", "r3")
	// A snapshot at 2 behind seq 3 keeps seg-0 (it holds record 3) and
	// rotates to a second segment.
	if err := l.SaveSnapshot([]byte(flatState), 2); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "r4", "r5")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := SaveMark(root, "BLOCKIDS", 4096); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, snapName(3)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, segs, err := listDir(root)
	if err != nil || len(snaps) != 1 || len(segs) != 2 {
		t.Fatalf("flat root: %d snapshots, %d segments, %v; want 1 and 2", len(snaps), len(segs), err)
	}
	return root
}

const flatState = "state@2"

var flatRecords = []string{"3:r3", "4:r4", "5:r5"}

// checkMigrated requires dirs to be root's one shard-000 holding the
// whole flat log, and root to hold only the manifest, that directory
// and the mark, unchanged.
func checkMigrated(t *testing.T, root string, dirs []string) {
	t.Helper()
	if len(dirs) != 1 || dirs[0] != filepath.Join(root, "shard-000") {
		t.Fatalf("migrated dirs = %v, want [%s/shard-000]", dirs, root)
	}
	if got, want := rootLayout(t, root), []string{"BLOCKIDS", manifestName, "shard-000/"}; !equal(got, want) {
		t.Fatalf("migrated root holds %v, want %v", got, want)
	}
	if n, ok, err := readManifest(root); err != nil || !ok || n != 1 {
		t.Fatalf("migrated manifest = %d, %v, %v; want 1", n, ok, err)
	}
	if v, err := LoadMark(root, "BLOCKIDS"); err != nil || v != 4096 {
		t.Fatalf("mark after migration = %d, %v; want 4096", v, err)
	}
	l, err := Open(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if state, seq := l.Snapshot(); string(state) != flatState || seq != 2 {
		t.Fatalf("migrated snapshot = %q at %d, want %q at 2", state, seq, flatState)
	}
	if got := collect(t, l); !equal(got, flatRecords) {
		t.Fatalf("migrated replay = %v, want %v", got, flatRecords)
	}
	if l.Seq() != 5 {
		t.Fatalf("migrated seq = %d, want 5", l.Seq())
	}
}

// TestShardDirsMigratesFlatLog: a flat single-shard root opened at one
// shard, or at 0, becomes a one-shard root that replays every record
// and keeps its mark; opening it again changes nothing.
func TestShardDirsMigratesFlatLog(t *testing.T) {
	for _, p := range []int{1, 0} {
		root := flatRoot(t)
		dirs, err := ShardDirs(root, p)
		if err != nil {
			t.Fatalf("P %d: %v", p, err)
		}
		checkMigrated(t, root, dirs)
		if again, err := ShardDirs(root, p); err != nil || !equal(again, dirs) {
			t.Fatalf("P %d: reopen = %v, %v; want %v", p, again, err, dirs)
		}
		checkMigrated(t, root, dirs)
	}
}

// TestShardDirsMigrationResumes: a migration cut short after any
// prefix of its renames, or after all of them but before the manifest,
// finishes on the next open, and such a root is still one shard.
func TestShardDirsMigrationResumes(t *testing.T) {
	snaps, segs, err := listDir(flatRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var flat []string
	for _, f := range append(snaps, segs...) {
		flat = append(flat, f.name)
	}
	for k := 0; k <= len(flat); k++ {
		for _, p := range []int{1, 0, 4} {
			root := flatRoot(t)
			shard0 := filepath.Join(root, "shard-000")
			if err := os.Mkdir(shard0, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range flat[:k] {
				if err := os.Rename(filepath.Join(root, name), filepath.Join(shard0, name)); err != nil {
					t.Fatal(err)
				}
			}
			dirs, err := ShardDirs(root, p)
			if p == 4 {
				if !errors.Is(err, ErrShardMismatch) {
					t.Fatalf("%d of %d renamed, P 4: err = %v, want ErrShardMismatch", k, len(flat), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d of %d renamed, P %d: %v", k, len(flat), p, err)
			}
			checkMigrated(t, root, dirs)
		}
	}
}

// TestShardDirsRefusesShardingFlatLog: more than one shard over a flat
// log is refused and leaves every byte of the root where it was; one
// shard then migrates it.
func TestShardDirsRefusesShardingFlatLog(t *testing.T) {
	root := flatRoot(t)
	before := readTree(t, root)
	if _, err := ShardDirs(root, 4); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("flat->4 err = %v, want ErrShardMismatch", err)
	}
	if after := readTree(t, root); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused open changed the root:\nbefore %v\nafter  %v", before, after)
	}
	dirs, err := ShardDirs(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkMigrated(t, root, dirs)
}

// readTree reads every file under root, keyed by its path below root.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestShardDirsRejectsBadCount(t *testing.T) {
	for _, p := range []int{-1, shard.MaxShards + 1} {
		root := filepath.Join(t.TempDir(), "wal")
		if _, err := ShardDirs(root, p); !errors.Is(err, shard.ErrBadShardCount) {
			t.Fatalf("shards=%d: err = %v, want ErrBadShardCount", p, err)
		}
		if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("shards=%d created the root: %v", p, err)
		}
	}
}

// TestMarkSurvivesReopenBesideTheLog: a mark is durable on return,
// reads back as the last value saved, is 0 where none was, refuses
// garbage as corruption, and does not disturb the log it sits beside.
func TestMarkSurvivesReopenBesideTheLog(t *testing.T) {
	root := t.TempDir()
	if v, err := LoadMark(root, "MARK"); err != nil || v != 0 {
		t.Fatalf("mark never saved: %d, %v; want 0", v, err)
	}
	log, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{4096, 1 << 40} {
		if err := SaveMark(root, "MARK", v); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadMark(root, "MARK"); err != nil || got != v {
			t.Fatalf("mark = %d, %v; want %d", got, err, v)
		}
	}
	log.Crash()
	if log, err = Open(root); err != nil || log.Seq() != 1 {
		t.Fatalf("log beside a mark reopened at seq %d: %v", log.Seq(), err)
	}
	_ = log.Close()
	if dirs, err := ShardDirs(root, 1); err != nil || len(dirs) != 1 {
		t.Fatalf("flat root with a mark: %v", err)
	}
	if err := os.WriteFile(filepath.Join(root, "MARK"), []byte("not a number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMark(root, "MARK"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbled mark: err = %v, want ErrCorrupt", err)
	}
}
