package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/adaptsim/adapt/internal/shard"
)

// Root layout. A NameNode with P namespace shards gives each shard its
// own independent Log so shards fsync, snapshot, and recover without
// coordinating. On disk that is, for every P ≥ 1,
//
//	<root>/SHARDS            — manifest: the decimal shard count
//	<root>/shard-000/        — shard 0's segments and snapshots
//	<root>/shard-001/        — shard 1's …
//
// with only one-number marks (SaveMark) beside them. The manifest pins
// the shard count for the life of the directory: the shard a file's
// records live in is a function of hash(name) % P, so reopening with a
// different P would scatter replay. Resharding is a migration, not a
// reopen, and ShardDirs refuses it.
//
// A root from before the manifest holds a one-shard log flat, its
// seg-*/snap-* files directly under root. ShardDirs moves them into
// shard-000/ and writes the manifest last; a new root's manifest comes
// before its shard directories. So a root without a manifest but with
// log files under it or a shard-000/ is a migration to finish.

// manifestName is the shard-count manifest file inside a WAL root.
const manifestName = "SHARDS"

// ErrShardMismatch marks an attempt to open a WAL root with a shard
// count different from the one it was created with.
var ErrShardMismatch = errors.New("wal: shard count mismatch (resharding unsupported)")

// ShardDirs resolves (creating if needed) the per-shard log
// directories under root, one per shard in shard order, and fsyncs
// root so their entries are durable. shards 0 takes the count root
// records (1 for a new root); any other count must match it. A flat
// one-shard log is migrated at 0 or 1 and refused, untouched, at more.
func ShardDirs(root string, shards int) ([]string, error) {
	if shards < 0 || shards > shard.MaxShards {
		return nil, fmt.Errorf("wal: %w: %d", shard.ErrBadShardCount, shards)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create root: %w", err)
	}
	count, ok, err := readManifest(root)
	switch {
	case err != nil:
		return nil, err
	case !ok:
		if count, err = initRoot(root, shards); err != nil {
			return nil, err
		}
	case shards != 0 && shards != count:
		return nil, fmt.Errorf("%w: directory %s was created with %d shards, opened with %d", ErrShardMismatch, root, count, shards)
	}
	dirs := make([]string, count)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%03d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, fmt.Errorf("wal: create shard dir: %w", err)
		}
	}
	return dirs, syncDir(root)
}

// initRoot records the shard count of a root without a manifest:
// max(shards, 1) for a new root, and 1 for a one-shard log, which it
// migrates first, its renames fsynced before the manifest is written.
func initRoot(root string, shards int) (int, error) {
	snaps, segs, err := listDir(root)
	if err != nil {
		return 0, err
	}
	shard0 := filepath.Join(root, "shard-000")
	if _, err := os.Stat(shard0); err != nil && len(snaps)+len(segs) == 0 {
		return max(shards, 1), writeManifest(root, max(shards, 1))
	}
	if shards > 1 {
		return 0, fmt.Errorf("%w: directory %s holds a single-shard log, opened with %d shards", ErrShardMismatch, root, shards)
	}
	if err := os.MkdirAll(shard0, 0o755); err != nil {
		return 0, fmt.Errorf("wal: create shard dir: %w", err)
	}
	for _, f := range append(snaps, segs...) {
		if err := os.Rename(filepath.Join(root, f.name), filepath.Join(shard0, f.name)); err != nil {
			return 0, fmt.Errorf("wal: migrate flat log: %w", err)
		}
	}
	if err := removeSnapshotTemps(root); err != nil {
		return 0, err
	}
	if err := syncDir(shard0); err != nil {
		return 0, err
	}
	if err := syncDir(root); err != nil {
		return 0, err
	}
	return 1, writeManifest(root, 1)
}

// readManifest returns the shard count recorded in root's manifest,
// if one exists.
func readManifest(root string) (count int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: read shard manifest: %w", err)
	}
	count, err = strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || count < 1 || count > shard.MaxShards {
		return 0, false, fmt.Errorf("%w: shard manifest %q unreadable", ErrCorrupt, strings.TrimSpace(string(data)))
	}
	return count, true, nil
}

// writeManifest durably records the shard count.
func writeManifest(root string, shards int) error {
	if err := writeFileDurably(root, manifestName, strconv.Itoa(shards)+"\n"); err != nil {
		return fmt.Errorf("wal: write shard manifest: %w", err)
	}
	return nil
}

// writeFileDurably replaces root/name with content: temp file, fsync,
// rename, fsync directory — the same discipline snapshots use, so a
// crash leaves either the old file or the complete new one.
func writeFileDurably(root, name, content string) error {
	tmp := filepath.Join(root, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.WriteString(content); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(root, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(root)
}

// SaveMark durably records one number under root/name — a high-water
// mark that must survive a crash but is not part of any shard's record
// stream (the NameNode's block-id ceiling). It is on disk when SaveMark
// returns.
func SaveMark(root, name string, v uint64) error {
	if err := writeFileDurably(root, name, strconv.FormatUint(v, 10)+"\n"); err != nil {
		return fmt.Errorf("wal: save mark %s: %w", name, err)
	}
	return nil
}

// LoadMark reads the number SaveMark last recorded under root/name; a
// root that never saved one reads as 0.
func LoadMark(root, name string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(root, name))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: load mark %s: %w", name, err)
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: mark %s holds %q", ErrCorrupt, name, strings.TrimSpace(string(data)))
	}
	return v, nil
}
