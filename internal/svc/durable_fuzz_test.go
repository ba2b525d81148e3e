package svc

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/wal"
)

// FuzzReplayNamespace feeds arbitrary bytes to what a restart decodes
// from a WAL directory: snap becomes the payload of a snapshot and
// each line of recs the payload of one record after it. The WAL frames
// them with valid CRCs, so the damage reaches replayNamespace's JSON
// decoding and folding whole. openJournal must fail, or return a file
// list that a checkpoint and a re-open reproduce exactly (same
// dfs.FingerprintFiles); it must never panic.
func FuzzReplayNamespace(f *testing.F) {
	file := &dfs.FileMeta{Name: "/a", Size: 5, BlockSize: 4, Replication: 2, Blocks: []dfs.BlockMeta{
		{ID: 1, File: "/a", Index: 0, Size: 4, Replicas: []cluster.NodeID{0, 1}, Checksum: 7},
		{ID: 2, File: "/a", Index: 1, Size: 1, Replicas: []cluster.NodeID{1, 2}, Checksum: 9},
	}}
	snap, err := json.Marshal(walSnapshot{Files: []*dfs.FileMeta{file}})
	if err != nil {
		f.Fatal(err)
	}
	var recs [][]byte
	for _, r := range []walRecord{
		{Kind: "create", Name: "/b", File: &dfs.FileMeta{Name: "/b", BlockSize: 4, Replication: 1}},
		{Kind: "blocks", Name: "/a", Blocks: file.Blocks[:1]},
		{Kind: "delete", Name: "/b"},
	} {
		rec, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		recs = append(recs, rec)
	}
	f.Add(snap, bytes.Join(recs, []byte("\n")))
	f.Add([]byte{}, recs[0])
	f.Fuzz(func(t *testing.T, snap, recs []byte) {
		dir := t.TempDir()
		log, err := wal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Record 1 is a filler the snapshot covers: a snapshot needs a
		// sequence above zero to be read back.
		if _, err := log.Append([]byte(`{"kind":"delete","name":"/"}`)); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := log.SaveSnapshot(snap, 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range bytes.Split(recs, []byte("\n")) {
			if len(rec) == 0 {
				continue
			}
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		j, files, err := openJournal(dir)
		if err != nil {
			return
		}
		want := dfs.FingerprintFiles(files)
		state, err := json.Marshal(walSnapshot{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.log.SaveSnapshot(state, j.log.Seq()); err != nil {
			t.Fatal(err)
		}
		if err := j.log.Close(); err != nil {
			t.Fatal(err)
		}
		j, again, err := openJournal(dir)
		if err != nil {
			t.Fatalf("re-open after a checkpoint of what replayed: %v", err)
		}
		if err := j.log.Close(); err != nil {
			t.Fatal(err)
		}
		if got := dfs.FingerprintFiles(again); got != want {
			t.Fatalf("checkpoint and re-open changed the namespace: %d files %s, then %d files %s", len(files), want, len(again), got)
		}
	})
}
