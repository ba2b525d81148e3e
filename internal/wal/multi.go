package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Sharded layout. A NameNode running with P > 1 namespace shards
// gives each shard its own independent Log so shards fsync, snapshot,
// and recover without coordinating. On disk that is
//
//	<root>/SHARDS            — manifest: the decimal shard count
//	<root>/shard-000/        — shard 0's segments and snapshots
//	<root>/shard-001/        — shard 1's …
//
// P == 1 keeps the legacy flat layout (segments directly under root,
// no manifest), so existing single-shard WAL directories open
// unchanged.
//
// The manifest pins the shard count for the life of the directory:
// the shard a file's records live in is a function of hash(name) % P,
// so reopening with a different P would scatter replay. Resharding is
// a migration, not a reopen, and ShardDirs refuses it.

// manifestName is the shard-count manifest file inside a sharded WAL
// root.
const manifestName = "SHARDS"

// ErrShardMismatch marks an attempt to open a WAL root with a shard
// count different from the one it was created with.
var ErrShardMismatch = errors.New("wal: shard count mismatch (resharding unsupported)")

// ShardDirs resolves (creating if needed) the per-shard log
// directories under root for a NameNode with the given shard count,
// returning one directory per shard in shard order. It validates the
// layout:
//
//   - shards == 1 returns {root} (legacy flat layout). If root carries
//     a SHARDS manifest from a previous multi-shard run, it refuses.
//   - shards > 1 creates root/shard-NNN directories and a SHARDS
//     manifest recording the count. If a manifest already exists with
//     a different count, or root already holds a flat single-shard
//     log, it refuses — resharding an existing namespace is not
//     supported.
func ShardDirs(root string, shards int) ([]string, error) {
	if shards < 1 {
		return nil, fmt.Errorf("wal: shard count %d out of range", shards)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create root: %w", err)
	}
	recorded, hasManifest, err := readManifest(root)
	if err != nil {
		return nil, err
	}
	if shards == 1 {
		if hasManifest {
			return nil, fmt.Errorf("%w: directory %s was created with %d shards, opened with 1", ErrShardMismatch, root, recorded)
		}
		return []string{root}, nil
	}
	if hasManifest {
		if recorded != shards {
			return nil, fmt.Errorf("%w: directory %s was created with %d shards, opened with %d", ErrShardMismatch, root, recorded, shards)
		}
	} else {
		flat, err := hasFlatLog(root)
		if err != nil {
			return nil, err
		}
		if flat {
			return nil, fmt.Errorf("%w: directory %s holds a single-shard log, opened with %d shards", ErrShardMismatch, root, shards)
		}
		if err := writeManifest(root, shards); err != nil {
			return nil, err
		}
	}
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%03d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, fmt.Errorf("wal: create shard dir: %w", err)
		}
	}
	return dirs, nil
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
	if err != nil || count < 2 {
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
	if _, err := f.WriteString(content); err == nil {
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

// hasFlatLog reports whether root already contains flat single-shard
// log files (segments or snapshots directly under root).
func hasFlatLog(root string) (bool, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return false, fmt.Errorf("wal: scan root: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") {
			return true, nil
		}
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			return true, nil
		}
	}
	return false, nil
}
