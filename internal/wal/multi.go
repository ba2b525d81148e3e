package wal

import (
	"errors"
	"fmt"
	"math"
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
// A new root's manifest comes before its shard directories, so a root
// with log files or a shard-000/ but no manifest was written before
// every root had one: a one-shard log flat under root, in a journal
// encoding the NameNode no longer reads. ShardDirs refuses it,
// untouched.

// manifestName is the shard-count manifest file inside a WAL root.
const manifestName = "SHARDS"

// ErrShardMismatch marks an attempt to open a WAL root with a shard
// count different from the one it was created with.
var ErrShardMismatch = errors.New("wal: shard count mismatch (resharding unsupported)")

// ShardDirs resolves (creating if needed) the per-shard log
// directories under root, one per shard in shard order, and fsyncs
// root so their entries are durable. shards 0 takes the count root
// records (1 for a new root); any other count must match it. A root
// holding a log but no manifest is ErrCorrupt at any count.
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

// initRoot records the shard count of a root without a manifest,
// max(shards, 1), unless root already holds a log: that root predates
// the manifest and is refused with every file left where it was.
func initRoot(root string, shards int) (int, error) {
	snaps, segs, err := listDir(root)
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(filepath.Join(root, "shard-000")); err == nil || len(snaps)+len(segs) > 0 {
		return 0, fmt.Errorf("%w: directory %s holds a log but no %s manifest, a layout this build does not read; start from an empty directory", ErrCorrupt, root, manifestName)
	}
	return max(shards, 1), writeManifest(root, max(shards, 1))
}

// A number file (the manifest, a mark) holds one decimal number and a
// newline: formatNumber writes it and parseNumber reads it back.
func formatNumber(v uint64) []byte { return append(strconv.AppendUint(nil, v, 10), '\n') }

// parseNumber decodes the bytes of the number file name. Anything but a
// decimal in lo..hi, surrounding white space aside, is ErrCorrupt.
func parseNumber(name string, data []byte, lo, hi uint64) (uint64, error) {
	s := strings.TrimSpace(string(data))
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("%w: %s holds %q", ErrCorrupt, name, s)
	}
	return v, nil
}

// readNumber reads the number file root/name, which must hold a value
// in lo..hi; ok is false when there is no such file.
func readNumber(root, name string, lo, hi uint64) (v uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, name))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("wal: read %s: %w", name, err)
	}
	v, err = parseNumber(name, data, lo, hi)
	return v, err == nil, err
}

// readManifest returns the shard count recorded in root's manifest,
// if one exists.
func readManifest(root string) (count int, ok bool, err error) {
	v, ok, err := readNumber(root, manifestName, 1, shard.MaxShards)
	return int(v), ok, err
}

// writeManifest durably records the shard count.
func writeManifest(root string, shards int) error {
	if err := writeFileDurably(root, manifestName, formatNumber(uint64(shards))); err != nil {
		return fmt.Errorf("wal: write shard manifest: %w", err)
	}
	return nil
}

// SaveMark durably records one number under root/name — a high-water
// mark that must survive a crash but is not part of any shard's record
// stream (the NameNode's block-id ceiling). It is on disk when SaveMark
// returns.
func SaveMark(root, name string, v uint64) error {
	if err := writeFileDurably(root, name, formatNumber(v)); err != nil {
		return fmt.Errorf("wal: save mark %s: %w", name, err)
	}
	return nil
}

// LoadMark reads the number SaveMark last recorded under root/name; a
// root that never saved one reads as 0.
func LoadMark(root, name string) (uint64, error) {
	v, _, err := readNumber(root, name, 0, math.MaxUint64)
	return v, err
}
