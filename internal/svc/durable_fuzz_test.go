package svc

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/wal"
)

// journalRecord is a record as walJournal appends it: the kind byte,
// then the value.
func journalRecord(kind byte, v wireValue) []byte { return v.appendWire([]byte{kind}) }

// lengthPrefixed joins records, each behind its two-byte big-endian
// length: the form FuzzReplayNamespace reads its records in.
func lengthPrefixed(recs ...[]byte) []byte {
	var b []byte
	for _, rec := range recs {
		b = append(binary.BigEndian.AppendUint16(b, uint16(len(rec))), rec...)
	}
	return b
}

// splitRecords yields the records of b oldest first, as wal.Log.Replay
// yields a log's: each is a two-byte length and that many bytes, and a
// length past the end, or a lone last byte, takes what is left.
func splitRecords(b []byte) func(yield func(seq uint64, rec []byte) error) error {
	return func(yield func(seq uint64, rec []byte) error) error {
		for seq := uint64(2); len(b) > 0; seq++ {
			n := len(b)
			if len(b) >= 2 {
				n, b = int(binary.BigEndian.Uint16(b)), b[2:]
			}
			n = min(n, len(b))
			rec := b[:n]
			b = b[n:]
			if err := yield(seq, rec); err != nil {
				return err
			}
		}
		return nil
	}
}

// FuzzReplayNamespace feeds arbitrary bytes to the fold a restart
// trusts, foldNamespace, with no directory between them: snap is the
// newest checkpoint (none when empty) and recs the records after it,
// as splitRecords cuts them. The fold must refuse with wal.ErrCorrupt,
// or return a namespace that, checkpointed as a namespaceImage and
// folded again, has the same dfs.FingerprintFiles; it must never
// panic. TestJournalRoundTrip runs the same records through a log on
// disk.
func FuzzReplayNamespace(f *testing.F) {
	file := &dfs.FileMeta{Name: "/a", Size: 5, BlockSize: 4, Replication: 2, Blocks: []dfs.BlockMeta{
		{ID: 1, File: "/a", Index: 0, Size: 4, Replicas: []cluster.NodeID{0, 1}, Checksum: 7},
		{ID: 2, File: "/a", Index: 1, Size: 1, Replicas: []cluster.NodeID{1, 2}, Checksum: 9},
	}}
	snap := namespaceImage{file}.appendWire(nil)
	create := journalRecord(recordCreate, (*fileMeta)(&dfs.FileMeta{Name: "/b", BlockSize: 4, Replication: 1}))
	f.Add(snap, lengthPrefixed(
		create,
		journalRecord(recordBlocks, relocation{Name: "/a", Blocks: file.Blocks[:1]}),
		journalRecord(recordDelete, nameParams{Name: "/b"})))
	f.Add([]byte{}, lengthPrefixed(create))
	// Legal shapes the checks of the JSON layout stood beside: a
	// relocation of a file that is absent (a delete already folded into
	// the checkpoint), an empty checkpoint, and a create over a file
	// that is there.
	f.Add(snap, lengthPrefixed(
		journalRecord(recordBlocks, relocation{Name: "/gone", Blocks: []dfs.BlockMeta{{ID: 4, Replicas: []cluster.NodeID{0}}}}),
		journalRecord(recordDelete, nameParams{Name: "/a"})))
	f.Add(namespaceImage(nil).appendWire(nil), lengthPrefixed(create, create))
	f.Fuzz(func(t *testing.T, snap, recs []byte) {
		var snapSeq uint64
		if len(snap) > 0 {
			snapSeq = 1
		}
		files, err := foldNamespace(snap, snapSeq, splitRecords(recs))
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("a refused fold is not wal.ErrCorrupt: %v", err)
			}
			return
		}
		want := dfs.FingerprintFiles(files)
		again, err := foldNamespace(namespaceImage(files).appendWire(nil), 1, splitRecords(nil))
		if err != nil {
			t.Fatalf("a checkpoint of what folded does not fold: %v", err)
		}
		if got := dfs.FingerprintFiles(again); got != want {
			t.Fatalf("a checkpoint changed the namespace: %d files %s, then %d files %s", len(files), want, len(again), got)
		}
	})
}
