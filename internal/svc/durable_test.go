package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/wal"
)

// bootDurable starts a loopback cluster whose NameNode journals into
// dir, with a cleanup that tears the whole thing down.
func bootDurable(t *testing.T, n int, seed uint64, cfg NameNodeConfig) *LocalCluster {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(seed), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = lc.Close(ctx)
	})
	return lc
}

// durablePayload builds a deterministic, compressible-hostile payload
// distinct per index.
func durablePayload(i, size int) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte((i*131 + j*7) % 251)
	}
	return data
}

// restartCluster rebuilds the cluster value RestartNameNode needs (same
// shape, availability-stripped — the estimator refills from
// heartbeats).
func restartCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(make([]cluster.Node, n))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDurableRestartRecoversNamespace: a graceful stop and a fresh
// NameNode over the same WAL directory must reproduce the namespace
// exactly — same fingerprint, same bytes on read, deletes stay
// deleted — and recovering the WAL must be bit-deterministic.
func TestDurableRestartRecoversNamespace(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir}
	lc := bootDurable(t, 4, 51, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := lc.Client("shell")
	defer cl.Close()
	want := map[string][]byte{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("f%d", i)
		data := durablePayload(i, 700+i*301)
		if _, _, err := cl.CopyFromLocal(ctx, name, data, false); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	if _, _, err := cl.CopyFromLocal(ctx, "f0-copy", want["f0"], true); err != nil {
		t.Fatal(err)
	}
	want["f0-copy"] = want["f0"]
	if err := cl.Delete(ctx, "f1"); err != nil {
		t.Fatal(err)
	}
	delete(want, "f1")
	if _, err := cl.Rebalance(ctx, "f2"); err != nil {
		t.Fatal(err)
	}

	preFP := lc.NN.NamespaceFingerprint()
	if err := lc.NN.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lc.RestartNameNode(restartCluster(t, 4), stats.NewRNG(52), cfg); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatalf("fingerprint changed across restart:\n pre %s\npost %s", preFP, got)
	}

	cl2 := lc.Client("shell2")
	defer cl2.Close()
	for name, data := range want {
		got, err := cl2.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("read %q after restart: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%q: recovered bytes differ (%d vs %d)", name, len(got), len(data))
		}
	}
	if _, err := cl2.Stat(ctx, "f1"); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("deleted file resurrected: %v", err)
	}

	// Bit-determinism: two independent replays of the same directory
	// produce byte-identical namespace fingerprints.
	rec1, err := RecoverShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := RecoverShards(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := dfs.FingerprintFiles(rec1[0]), dfs.FingerprintFiles(rec2[0])
	if fp1 != fp2 {
		t.Fatalf("replay not deterministic:\n%s\n%s", fp1, fp2)
	}
	if fp1 != preFP {
		t.Fatalf("recovered fingerprint %s != live %s", fp1, preFP)
	}
}

// TestCrashRecoveryKeepsAckedWrites: a SIGKILL-style crash (no final
// sync, no drain) must lose nothing that was acknowledged.
func TestCrashRecoveryKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 512, Replication: 2, WALDir: dir}
	lc := bootDurable(t, 3, 53, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := lc.Client("shell")
	dataA := durablePayload(1, 1500)
	dataB := durablePayload(2, 900)
	if _, _, err := cl.CopyFromLocal(ctx, "a", dataA, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.CopyFromLocal(ctx, "b", dataB, true); err != nil {
		t.Fatal(err)
	}
	preFP := lc.NN.NamespaceFingerprint()

	lc.CrashNameNode()
	cl.Close()
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(54), cfg); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatalf("crash recovery diverged:\n pre %s\npost %s", preFP, got)
	}
	cl2 := lc.Client("shell2")
	defer cl2.Close()
	for name, data := range map[string][]byte{"a": dataA, "b": dataB} {
		got, err := cl2.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("read %q after crash: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%q: bytes differ after crash recovery", name)
		}
	}
}

// failAppends fails every WAL append before any byte of its frame is
// written.
type failAppends struct{}

func (failAppends) BeforeAppend([]byte) (int, error) {
	return 0, errors.New("injected journal failure")
}

// TestJournalFailureVetoesMutation: when the WAL cannot commit, the
// mutation must not be acknowledged or applied — and a restart from
// the directory shows exactly the pre-failure namespace.
func TestJournalFailureVetoesMutation(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir}
	lc := bootDurable(t, 3, 55, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := lc.Client("shell")
	defer cl.Close()
	kept := durablePayload(3, 800)
	if _, _, err := cl.CopyFromLocal(ctx, "keep", kept, false); err != nil {
		t.Fatal(err)
	}
	preFP := lc.NN.NamespaceFingerprint()

	// The journal device fails: the next append writes nothing and the
	// log breaks, so every later one fails too.
	lc.NN.durable.journals[0].log.SetFaults(failAppends{})

	_, _, err := cl.CopyFromLocal(ctx, "lost", durablePayload(4, 800), false)
	if !errors.Is(err, dfs.ErrJournal) {
		t.Fatalf("unjournaled create acknowledged: %v", err)
	}
	if err := cl.Delete(ctx, "keep"); !errors.Is(err, dfs.ErrJournal) {
		t.Fatalf("unjournaled delete acknowledged: %v", err)
	}
	// The veto leaves the in-memory namespace untouched too.
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatalf("vetoed mutations leaked into namespace:\n pre %s\npost %s", preFP, got)
	}
	if got, err := cl.ReadFile(ctx, "keep"); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("read of surviving file failed: %v", err)
	}

	lc.CrashNameNode()
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(56), cfg); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatalf("restart after journal failure diverged:\n pre %s\npost %s", preFP, got)
	}
	cl2 := lc.Client("shell2")
	defer cl2.Close()
	if _, err := cl2.Stat(ctx, "lost"); !errors.Is(err, dfs.ErrFileNotFound) {
		t.Fatalf("vetoed file recovered anyway: %v", err)
	}
}

// TestSnapshotCadenceTruncatesLog: once the replay suffix passes
// snapshotEvery, the next acknowledged mutation checkpoints the
// namespace and truncates the log — and recovery through a
// snapshot+suffix (and through a pure snapshot) stays exact.
func TestSnapshotCadenceTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir, snapshotEvery: 4}
	lc := bootDurable(t, 3, 57, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cl := lc.Client("shell")
	defer cl.Close()
	for i := 0; i < 6; i++ {
		if _, _, err := cl.CopyFromLocal(ctx, fmt.Sprintf("s%d", i), durablePayload(i, 300), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := lc.NN.WALSeq(); got != 6 {
		t.Fatalf("wal seq = %d, want 6 (one create record per write)", got)
	}
	if got := lc.NN.WALSnapshotSeq(); got != 4 {
		t.Fatalf("snapshot seq = %d, want 4 (cadence fired at the 4th record)", got)
	}
	preFP := lc.NN.NamespaceFingerprint()

	// Snapshot + two-record suffix.
	lc.CrashNameNode()
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(58), cfg); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatalf("snapshot+suffix recovery diverged")
	}

	// Forced checkpoint, then a pure-snapshot (empty suffix) recovery.
	if err := lc.NN.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.WALSnapshotSeq(); got != lc.NN.WALSeq() {
		t.Fatalf("forced checkpoint left suffix: snap %d seq %d", got, lc.NN.WALSeq())
	}
	lc.CrashNameNode()
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(59), cfg); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatalf("pure-snapshot recovery diverged")
	}
}

// TestRestartReadsShardCountFromWALDir: the WAL directory records its
// shard count, so a restart with Shards 0 comes back with the count it
// was created with and the same namespace, and one naming another
// count is refused before anything listens.
func TestRestartReadsShardCountFromWALDir(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir, Shards: 4}
	lc := bootDurable(t, 3, 61, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := lc.Client("shell")
	defer cl.Close()
	for i := 0; i < 8; i++ {
		if _, _, err := cl.CopyFromLocal(ctx, fmt.Sprintf("f%d", i), durablePayload(i, 300), false); err != nil {
			t.Fatal(err)
		}
	}
	preFP := lc.NN.NamespaceFingerprint()

	lc.CrashNameNode()
	cfg.Shards = 0
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(62), cfg); err != nil {
		t.Fatal(err)
	}
	if got := lc.NN.Engine().ShardCount(); got != 4 {
		t.Fatalf("restart with Shards 0: %d shards, want the recorded 4", got)
	}
	if got := lc.NN.NamespaceFingerprint(); got != preFP {
		t.Fatal("restart with Shards 0 recovered a different namespace")
	}

	lc.CrashNameNode()
	cfg.Shards = 8
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(63), cfg); !errors.Is(err, wal.ErrShardMismatch) {
		t.Fatalf("restart of a 4-shard directory with Shards 8: err = %v, want wal.ErrShardMismatch", err)
	}
}

// TestNonUTF8NameRefusedAtTheWire: adapt-fs fsck prints names as
// JSON, in its HealthReport, which would show "/a\xff" and "/a\xfe"
// both as "/a\uFFFD", one other name. A name that is not UTF-8 is
// refused as a malformed call instead, and the namespace a restart
// recovers is exactly the names that were accepted.
func TestNonUTF8NameRefusedAtTheWire(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir, Shards: 4}
	lc := bootDurable(t, 3, 71, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := lc.Client("shell")
	defer cl.Close()
	for _, name := range []string{"/a\xff", "/a\xfe"} {
		if _, _, err := cl.CopyFromLocal(ctx, name, durablePayload(0, 300), false); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("create %q: err = %v, want ErrBadFrame", name, err)
		}
	}
	want := map[string][]byte{"/a\uFFFD": durablePayload(1, 300), "/ok": durablePayload(2, 300)}
	for name, data := range want {
		if _, _, err := cl.CopyFromLocal(ctx, name, data, false); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
	}

	lc.CrashNameNode()
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(72), cfg); err != nil {
		t.Fatal(err)
	}
	cl2 := lc.Client("shell2")
	defer cl2.Close()
	names, err := cl2.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Fatalf("recovered names %q, want the %d accepted", names, len(want))
	}
	for name, data := range want {
		got, err := cl2.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("read %q after restart: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%q: recovered bytes differ", name)
		}
	}
}

// TestNonUTF8NameRefusedInProcess: an in-process create through the
// engine meets no wire decoder, so the journal itself refuses a name
// that is not UTF-8, before the create is acknowledged. Replay reads
// names by the wire's rule; journaled, such a name would leave its
// shard unable to restart.
func TestNonUTF8NameRefusedInProcess(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir, Shards: 4}
	lc := bootDurable(t, 3, 73, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl, err := dfs.NewClient(lc.Engine(), stats.NewRNG(74))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.CopyFromLocalReportContext(ctx, "/a\xff", durablePayload(0, 300), false); !errors.Is(err, dfs.ErrJournal) {
		t.Fatalf("in-process create of a non-UTF-8 name: err = %v, want dfs.ErrJournal", err)
	}
	if _, _, err := cl.CopyFromLocalReportContext(ctx, "/ok", durablePayload(1, 300), false); err != nil {
		t.Fatal(err)
	}

	lc.CrashNameNode()
	if err := lc.RestartNameNode(restartCluster(t, 3), stats.NewRNG(75), cfg); err != nil {
		t.Fatalf("restart after a refused non-UTF-8 create: %v", err)
	}
	if got := lc.Engine().List(); !reflect.DeepEqual(got, []string{"/ok"}) {
		t.Fatalf("recovered names %q, want only /ok", got)
	}
}

// stallAppend parks every WAL append inside BeforeAppend, where the
// log's lock is held just as it is across an fsync, until release is
// closed; entered is closed when the first append arrives.
type stallAppend struct {
	entered, release chan struct{}
	once             sync.Once
}

func (s *stallAppend) BeforeAppend(frame []byte) (int, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return len(frame), nil
}

// TestStalledShardAppendDoesNotStallOtherShards: while one shard's
// append is stalled under its log's lock, as it is while its fsync
// runs, a put to a name on another shard completes. The checkpoint
// cadence that runs after every acknowledged mutation reads every
// shard's log, so it must not wait for that lock.
func TestStalledShardAppendDoesNotStallOtherShards(t *testing.T) {
	const shards = 4
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: t.TempDir(), Shards: shards}
	lc := bootDurable(t, 3, 65, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	smap, err := shard.NewMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	nameA, nameB := "stalled", ""
	for i := 0; nameB == ""; i++ {
		if n := fmt.Sprintf("free%d", i); smap.Of(n) != smap.Of(nameA) {
			nameB = n
		}
	}

	stall := &stallAppend{entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(stall.release) })
	defer release()
	lc.NN.durable.journals[smap.Of(nameA)].log.SetFaults(stall)
	clA := lc.Client("a")
	defer clA.Close()
	doneA := make(chan error, 1)
	go func() {
		_, _, err := clA.CopyFromLocal(ctx, nameA, durablePayload(1, 300), false)
		doneA <- err
	}()
	select {
	case <-stall.entered:
	case err := <-doneA:
		t.Fatalf("put to the stalled shard returned before its append: %v", err)
	}

	clB := lc.Client("b")
	defer clB.Close()
	doneB := make(chan error, 1)
	go func() {
		_, _, err := clB.CopyFromLocal(ctx, nameB, durablePayload(2, 300), false)
		doneB <- err
	}()
	select {
	case err := <-doneB:
		if err != nil {
			t.Fatalf("put to shard %d: %v", smap.Of(nameB), err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("put to shard %d did not complete within 2s while shard %d's append was stalled", smap.Of(nameB), smap.Of(nameA))
	}
	release()
	if err := <-doneA; err != nil {
		t.Fatalf("put to the stalled shard after release: %v", err)
	}
}

// TestFailedCheckpointIsCounted: a cadence checkpoint that fails
// fails no mutation; it is counted in
// adapt_namenode_wal_checkpoint_failures_total, and the next mutation
// past the cadence checkpoints again.
func TestFailedCheckpointIsCounted(t *testing.T) {
	dir := t.TempDir()
	cfg := NameNodeConfig{BlockSize: 256, Replication: 2, WALDir: dir, snapshotEvery: 4}
	lc := bootDurable(t, 3, 67, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// The cadence fires at record 4; its snapshot's name is taken by a
	// non-empty directory, so the rename fails.
	blocker := filepath.Join(dir, "shard-000", fmt.Sprintf("snap-%020d.snap", 4))
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	cl := lc.Client("shell")
	defer cl.Close()
	put := func(i int) {
		t.Helper()
		if _, _, err := cl.CopyFromLocal(ctx, fmt.Sprintf("c%d", i), durablePayload(i, 300), false); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 1; i <= 4; i++ {
		put(i)
	}
	const series = "adapt_namenode_wal_checkpoint_failures_total"
	if got := RenderMetrics(lc.NN.snapshotMetrics()); !strings.Contains(got, series+" 1\n") {
		t.Fatalf("after the failed checkpoint, /metrics lacks %q 1:\n%s", series, got)
	}
	if got := lc.NN.WALSnapshotSeq(); got != 0 {
		t.Fatalf("snapshot seq = %d after the failed checkpoint, want 0", got)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	put(5)
	if got := lc.NN.WALSnapshotSeq(); got != 5 {
		t.Fatalf("snapshot seq = %d, want 5: the next mutation past the cadence checkpoints", got)
	}
	if got := lc.NN.durable.checkpointFailures.Load(); got != 1 {
		t.Fatalf("checkpoint failures = %d, want 1", got)
	}
}

// TestJournalRoundTrip: the records walJournal appends, with a
// checkpoint saved among them, survive a log on disk: a close and a
// re-open give back the namespace the mutations left.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, files, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("a new journal holds %d files", len(files))
	}
	a := &dfs.FileMeta{Name: "/a", Size: 5, BlockSize: 4, Replication: 2, Blocks: []dfs.BlockMeta{
		{ID: 1, File: "/a", Size: 4, Replicas: []cluster.NodeID{0, 1}, Checksum: 7},
		{ID: 2, File: "/a", Index: 1, Size: 1, Replicas: []cluster.NodeID{1, 2}, Checksum: 9},
	}}
	b := &dfs.FileMeta{Name: "/b", BlockSize: 4, Replication: 1}
	moved := []dfs.BlockMeta{{ID: 3, File: "/a", Size: 5, Replicas: []cluster.NodeID{2, 0}, Checksum: 11}}
	for _, err := range []error{
		j.LogCreate(a),
		j.LogCreate(b),
		j.log.SaveSnapshot(namespaceImage{a, b}.appendWire(nil), j.log.Seq()),
		j.LogBlocks("/a", moved),
		j.LogDelete("/b"),
		j.LogBlocks("/b", moved), // a relocation of an absent file changes nothing
		j.log.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	j, files, err = openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.log.Close(); err != nil {
		t.Fatal(err)
	}
	want := *a
	want.Blocks = moved
	if !reflect.DeepEqual(files, []*dfs.FileMeta{&want}) {
		t.Fatalf("re-opened journal holds %+v, want only %+v", files, want)
	}
}

// TestJSONJournalRootRefused: a WAL root written by a build that
// journaled JSON — one holding a JSON record, another a JSON
// checkpoint — is refused as wal.ErrCorrupt at its first payload,
// never replayed as some other namespace.
func TestJSONJournalRootRefused(t *testing.T) {
	const file = `{"Name":"/a","Size":1,"BlockSize":1,"Replication":1,"Blocks":null}`
	for name, write := range map[string]func(*wal.Log) error{
		"record": func(l *wal.Log) error {
			_, err := l.Append([]byte(`{"kind":"create","name":"/a","file":` + file + `}`))
			return err
		},
		"snapshot": func(l *wal.Log) error {
			if _, err := l.Append([]byte(`{"kind":"delete","name":"/"}`)); err != nil {
				return err
			}
			return l.SaveSnapshot([]byte(`{"files":[`+file+`]}`), 1)
		},
	} {
		root := t.TempDir()
		dirs, err := wal.ShardDirs(root, 1)
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := write(l); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := NewNameNodeServer(restartCluster(t, 2), []string{"127.0.0.1:1", "127.0.0.1:2"}, stats.NewRNG(1), nil, NameNodeConfig{WALDir: root})
		if err == nil {
			_ = s.Shutdown(context.Background())
			t.Fatalf("a root holding a JSON %s was replayed", name)
		}
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("a root holding a JSON %s: err = %v, want wal.ErrCorrupt", name, err)
		}
	}
}
