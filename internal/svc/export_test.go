package svc

import (
	"fmt"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/wal"
)

// Probes only the tests call: they read unexported state, force a
// checkpoint, or replay a WAL root the way a restart would.

// DefaultChunkSize is the chunk a writer streams a block in.
const DefaultChunkSize = dfs.ChunkSize

// resilience snapshots the counters of this client's own block I/O:
// the failovers, retries, hedges and checksum catches of its puts and
// gets (all zero before the first one). The NameNode's counters see
// the write-side ones again through nn.complete; the read-side ones
// are only here.
func (c *Client) resilience() metrics.ResilienceSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		return metrics.ResilienceSnapshot{}
	}
	return c.data.io.Resilience().Snapshot()
}

// breakerStats returns the transition stats shared by this client's
// per-DataNode breakers: nil before the first put or get, and when the
// cluster runs without breakers.
func (c *Client) breakerStats() *BreakerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		return nil
	}
	return c.data.brkStats
}

// walledOff reports whether the client's own breakers are open on each
// of DataNodes 0..n-1.
func (c *Client) walledOff(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.data == nil {
		return n == 0
	}
	for _, st := range c.data.stores[:n] {
		if st.brk.State() != BreakerOpen {
			return false
		}
	}
	return true
}

// RecoverShards rebuilds every shard's image from a WAL root (shards
// 0 takes the count the root records), one sorted file list per shard, without taking ownership of any log — the read-only
// recovery the bit-determinism tests replay twice. Each shard recovers
// independently, but this helper fails fast on the first error so
// callers never mistake a partial recovery for a full one.
func RecoverShards(root string, shards int) ([][]*dfs.FileMeta, error) {
	dirs, err := wal.ShardDirs(root, shards)
	if err != nil {
		return nil, err
	}
	out := make([][]*dfs.FileMeta, len(dirs))
	for i, dir := range dirs {
		j, files, err := openJournal(dir)
		if err != nil {
			return nil, fmt.Errorf("svc: recover shard %d: %w", i, err)
		}
		if err := j.log.Close(); err != nil {
			return nil, fmt.Errorf("svc: recover shard %d: close wal %s: %w", i, dir, err)
		}
		out[i] = files
	}
	return out, nil
}

// Checkpoint forces a namespace snapshot of every shard into its WAL
// now, as the cadence path (maybeSnapshot) does once a shard's suffix
// has grown.
func (s *NameNodeServer) Checkpoint() error {
	d := &s.durable
	for i := range d.journals {
		d.snapMus[i].Lock()
		err := s.snapshotLocked(i)
		d.snapMus[i].Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// WALShardSeqs reports each shard journal's (committed, snapshotted)
// sequence pair, in shard order — the per-shard view behind the
// WALSeq/WALSnapshotSeq aggregates. Nil without a WAL.
func (s *NameNodeServer) WALShardSeqs() [][2]uint64 {
	if len(s.durable.journals) == 0 {
		return nil
	}
	out := make([][2]uint64, len(s.durable.journals))
	for i, j := range s.durable.journals {
		out[i] = [2]uint64{j.log.Seq(), j.log.SnapshotSeq()}
	}
	return out
}

// NamespaceFingerprint hashes the live namespace (see
// dfs.FingerprintFiles) — the recovery tests' bit-determinism probe.
func (s *NameNodeServer) NamespaceFingerprint() string { return s.nn.Fingerprint() }

// ShardFingerprint hashes one shard's live file table — the per-shard
// bit-determinism probe the sharded recovery tests compare against a
// double replay of that shard's log.
func (s *NameNodeServer) ShardFingerprint(i int) string {
	return s.nn.FingerprintShard(i)
}
