package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestShardDirsSingleIsFlat(t *testing.T) {
	root := t.TempDir()
	dirs, err := ShardDirs(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != root {
		t.Fatalf("single-shard dirs = %v, want [%s]", dirs, root)
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
	// Reopening with the same count is fine.
	again, err := ShardDirs(root, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 4 || again[0] != dirs[0] {
		t.Fatalf("reopen dirs = %v, want %v", again, dirs)
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

func TestShardDirsRefusesShardingFlatLog(t *testing.T) {
	root := t.TempDir()
	l, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ShardDirs(root, 4); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("flat->4 err = %v, want ErrShardMismatch", err)
	}
	// Still opens fine as a single shard.
	if _, err := ShardDirs(root, 1); err != nil {
		t.Fatal(err)
	}
}

func TestShardDirsRejectsBadCount(t *testing.T) {
	if _, err := ShardDirs(t.TempDir(), 0); err == nil {
		t.Fatal("shards=0 accepted")
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
