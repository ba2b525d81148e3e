package dfs

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

func testCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: n, InterruptedRatio: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testClient(t *testing.T, n int, blockSize int64) (*NameNode, *Client) {
	t.Helper()
	nn, err := NewNameNode(testCluster(t, n))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(nn, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = blockSize
	return nn, cl
}

// payload builds deterministic content of the given length.
func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

func TestCopyFromLocalAndReadBack(t *testing.T) {
	_, cl := testClient(t, 8, 100)
	data := payload(950) // 10 blocks: 9 full + 1 half
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Blocks) != 10 {
		t.Fatalf("blocks = %d, want 10", len(fm.Blocks))
	}
	if fm.Blocks[9].Size != 50 {
		t.Fatalf("last block size = %d, want 50", fm.Blocks[9].Size)
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestCopyFromLocalAdaptSkewsPlacement(t *testing.T) {
	// With ADAPT enabled, reliable nodes (second half of the
	// emulation cluster) must hold more blocks than volatile ones.
	nn, cl := testClient(t, 16, 10)
	data := payload(10 * 16 * 50) // 800 blocks
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, true); err != nil {
		t.Fatal(err)
	}
	counts, err := nn.BlockDistribution("f")
	if err != nil {
		t.Fatal(err)
	}
	var volatileTotal, reliableTotal int
	for i, n := range nn.Cluster().Nodes() {
		if n.Group >= 0 {
			volatileTotal += counts[i]
		} else {
			reliableTotal += counts[i]
		}
	}
	if reliableTotal <= volatileTotal {
		t.Fatalf("reliable %d <= volatile %d under ADAPT", reliableTotal, volatileTotal)
	}
}

func TestCopyFromLocalDuplicate(t *testing.T) {
	_, cl := testClient(t, 4, 100)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(10), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(10), false); !errors.Is(err, ErrFileExists) {
		t.Fatalf("err = %v, want ErrFileExists", err)
	}
}

func TestEmptyFileGetsOneBlock(t *testing.T) {
	_, cl := testClient(t, 4, 100)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "empty", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Blocks) != 1 || fm.Blocks[0].Size != 0 {
		t.Fatalf("blocks = %+v", fm.Blocks)
	}
	data, err := cl.ReadFileContext(context.Background(), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("data = %q", data)
	}
}

func TestReplicationStoresAllReplicas(t *testing.T) {
	nn, cl := testClient(t, 8, 100)
	cl.Replication = 3
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(500), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range fm.Blocks {
		if len(bm.Replicas) != 3 {
			t.Fatalf("block %d replicas = %v", bm.Index, bm.Replicas)
		}
		for _, r := range bm.Replicas {
			dn, err := nn.DataNode(r)
			if err != nil {
				t.Fatal(err)
			}
			if !dn.Has(bm.ID) {
				t.Fatalf("replica %d missing on node %d", bm.ID, r)
			}
		}
	}
}

func TestReadFromSurvivingReplica(t *testing.T) {
	nn, cl := testClient(t, 4, 100)
	cl.Replication = 2
	data := payload(250)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	// Down the first replica holder of the first block; every block
	// keeps at least its second replica unless it shares that node,
	// in which case its own second replica still serves it.
	dn, err := nn.DataNode(fm.Blocks[0].Replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	dn.SetUp(false)
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read with downed replicas mismatched")
	}
}

func TestReadFailsWithNoLiveReplica(t *testing.T) {
	nn, cl := testClient(t, 4, 100)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(100), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fm.Blocks[0].Replicas {
		dn, err := nn.DataNode(r)
		if err != nil {
			t.Fatal(err)
		}
		dn.SetUp(false)
	}
	if _, err := cl.ReadFileContext(context.Background(), "f"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}

func TestCp(t *testing.T) {
	_, cl := testClient(t, 8, 100)
	data := payload(430)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "src", data, false); err != nil {
		t.Fatal(err)
	}
	fm, err := cl.Cp(context.Background(), "src", "dst", true)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Name != "dst" {
		t.Fatalf("name = %q", fm.Name)
	}
	got, err := cl.ReadFileContext(context.Background(), "dst")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy content mismatch")
	}
	if _, err := cl.Cp(context.Background(), "missing", "x", false); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestAdaptRedistributes(t *testing.T) {
	nn, cl := testClient(t, 16, 10)
	data := payload(10 * 16 * 40) // 640 blocks
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false); err != nil {
		t.Fatal(err)
	}
	before, err := nn.BlockDistribution("f")
	if err != nil {
		t.Fatal(err)
	}
	moved, err := cl.Adapt(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("adapt moved nothing on a heterogeneous cluster")
	}
	after, err := nn.BlockDistribution("f")
	if err != nil {
		t.Fatal(err)
	}
	shareReliable := func(counts []int) float64 {
		var rel, total int
		for i, n := range nn.Cluster().Nodes() {
			total += counts[i]
			if n.Group < 0 {
				rel += counts[i]
			}
		}
		return float64(rel) / float64(total)
	}
	if shareReliable(after) <= shareReliable(before) {
		t.Fatalf("adapt did not shift blocks to reliable nodes: %.3f -> %.3f",
			shareReliable(before), shareReliable(after))
	}
	// Contents intact after the move.
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content changed during adapt")
	}
	// Replica sets on datanodes match metadata exactly.
	fm, err := nn.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range fm.Blocks {
		for _, r := range bm.Replicas {
			dn, err := nn.DataNode(r)
			if err != nil {
				t.Fatal(err)
			}
			if !dn.Has(bm.ID) {
				t.Fatalf("metadata says node %d holds block %d but it does not", r, bm.ID)
			}
		}
	}
}

func TestRebalance(t *testing.T) {
	_, cl := testClient(t, 8, 10)
	data := payload(8 * 10 * 30)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rebalance(context.Background(), "f"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content changed during rebalance")
	}
}

func TestDeleteRemovesReplicas(t *testing.T) {
	nn, cl := testClient(t, 4, 100)
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(300), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.DeleteContext(context.Background(), "f"); err != nil {
		t.Fatal(err)
	}
	if nn.Exists("f") {
		t.Fatal("file still listed")
	}
	for _, bm := range fm.Blocks {
		for _, r := range bm.Replicas {
			dn, err := nn.DataNode(r)
			if err != nil {
				t.Fatal(err)
			}
			if dn.Has(bm.ID) {
				t.Fatalf("block %d still on node %d", bm.ID, r)
			}
		}
	}
	if err := nn.DeleteContext(context.Background(), "f"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestListAndStat(t *testing.T) {
	nn, cl := testClient(t, 4, 100)
	for _, name := range []string{"b", "a", "c"} {
		if _, _, err := cl.CopyFromLocalReportContext(context.Background(), name, payload(10), false); err != nil {
			t.Fatal(err)
		}
	}
	names := nn.List()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
	fm, err := nn.Stat("a")
	if err != nil {
		t.Fatal(err)
	}
	// Stat returns a copy: mutating it must not corrupt the namenode.
	fm.Blocks[0].Replicas[0] = 99
	fm2, err := nn.Stat("a")
	if err != nil {
		t.Fatal(err)
	}
	if fm2.Blocks[0].Replicas[0] == 99 {
		t.Fatal("Stat leaked internal state")
	}
	if _, err := nn.Stat("zzz"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDataNodeDownRejectsIO(t *testing.T) {
	dn := NewDataNode(0)
	if err := dn.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	dn.SetUp(false)
	if err := dn.Put(2, []byte("y")); err == nil {
		t.Fatal("put on down node succeeded")
	}
	if _, err := dn.Get(1); err == nil {
		t.Fatal("get on down node succeeded")
	}
	if !dn.Has(1) {
		t.Fatal("bits should persist through downtime")
	}
	dn.SetUp(true)
	if _, err := dn.Get(1); err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
}

func TestDataNodeAccounting(t *testing.T) {
	dn := NewDataNode(3)
	if err := dn.Put(1, payload(100)); err != nil {
		t.Fatal(err)
	}
	if err := dn.Put(2, payload(50)); err != nil {
		t.Fatal(err)
	}
	if len(dn.StoredBlocks()) != 2 || dn.UsedBytes() != 150 {
		t.Fatalf("count=%d used=%d", len(dn.StoredBlocks()), dn.UsedBytes())
	}
	dn.Delete(1)
	if len(dn.StoredBlocks()) != 1 || dn.UsedBytes() != 50 {
		t.Fatalf("after delete: count=%d used=%d", len(dn.StoredBlocks()), dn.UsedBytes())
	}
}

func TestDataNodePutCopies(t *testing.T) {
	dn := NewDataNode(0)
	data := []byte{1, 2, 3}
	if err := dn.Put(1, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	got, err := dn.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("Put aliased caller buffer")
	}
	got[1] = 99
	again, err := dn.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if again[1] != 2 {
		t.Fatal("Get leaked internal buffer")
	}

	// With an injector attached, CorruptRead mutates a copy on both read
	// paths, never the stored bytes.
	size, sum, _ := dn.StoredSum(1)
	dn.SetFaults(&stubFaults{corruptOn: map[cluster.NodeID]bool{0: true}})
	view := func(id BlockID) ([]byte, error) {
		data, _, release, err := dn.View(id)
		if err == nil {
			release()
		}
		return data, err
	}
	for name, read := range map[string]func(BlockID) ([]byte, error){"View": view, "Get": dn.Get} {
		got, err := read(1)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatalf("%s: the injector corrupted nothing", name)
		}
		if s2, c2, ok := dn.StoredSum(1); !ok || s2 != size || c2 != sum {
			t.Fatalf("%s: CorruptRead reached the stored replica: %d bytes, crc %#x; want %d, %#x", name, s2, c2, size, sum)
		}
	}
	if n := dn.Pins(); n != 1 {
		t.Fatalf("%d pins after copying reads, want the store's one", n)
	}
}

// TestPinnedReplicaOutlivesDeleteAndReput pins the recycling rule: a
// slice View served stays intact through a delete of its block and a
// re-put that draws a recycled buffer, because the reader's pin keeps
// its buffer out of the pool; once the last pin drops, the buffer backs
// a later replica of its size.
func TestPinnedReplicaOutlivesDeleteAndReput(t *testing.T) {
	const size = 4 << 10
	old, next := bytes.Repeat([]byte{1}, size), bytes.Repeat([]byte{2}, size)
	dn := NewDataNode(0)
	if err := dn.Put(1, old); err != nil {
		t.Fatal(err)
	}
	served, _, release, err := dn.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := dn.Pins(); n != 2 {
		t.Fatalf("%d pins on a stored, viewed replica, want the store's and the reader's", n)
	}
	dn.Delete(1)
	if n := dn.Pins(); n != 1 {
		t.Fatalf("%d pins after the delete, want the reader's", n)
	}
	// Stock the pool, so the re-put draws a recycled buffer.
	for range 4 {
		RecycleReplicaBuf(make([]byte, size))
	}
	if err := dn.Put(1, next); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, old) {
		t.Fatal("a pinned slice changed under a delete and re-put of its block")
	}
	now, _, unpin, err := dn.View(1)
	if err != nil || !bytes.Equal(now, next) {
		t.Fatalf("re-put block reads %d bytes, %v", len(now), err)
	}
	if &now[0] == &served[0] {
		t.Fatal("the re-put drew the buffer a reader still pins")
	}
	unpin()
	release()
	if n := dn.Pins(); n != 1 {
		t.Fatalf("%d pins after both readers released, want the store's one", n)
	}

	// Once released, a buffer goes back to the pool, and the next draw
	// of its size returns it. A sync.Pool may drop what it is handed
	// (under the race detector it drops some on purpose) or hand it to
	// another P, so the cycle runs until one draw shows the reuse.
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		buf := NewReplicaBuf(size)
		copy(buf, old)
		if err := dn.Adopt(2, buf, []ChunkSum{{Len: size, Sum: Checksum(buf)}}); err != nil {
			t.Fatal(err)
		}
		_, _, release, err := dn.View(2)
		if err != nil {
			t.Fatal(err)
		}
		dn.Delete(2)
		release()
		got := NewReplicaBuf(size)
		reused = &got[0] == &buf[0]
		RecycleReplicaBuf(got)
	}
	if !reused {
		t.Fatal("a released replica's buffer never came back from the pool")
	}
	dn.Clear()
	if n := dn.Pins(); n != 0 {
		t.Fatalf("%d pins outstanding after Clear", n)
	}
}

// TestRecycleTakesOnlyItsOwnBytes: a class-sized slice whose capacity
// runs past its length is left to the GC, so a later replica can never
// be drawn over the tail its caller still holds.
func TestRecycleTakesOnlyItsOwnBytes(t *testing.T) {
	const size = 8 << 10
	whole := make([]byte, 2*size)
	for range 4 {
		RecycleReplicaBuf(whole[:size])
	}
	for range 8 {
		for _, n := range []int{size, 2 * size} {
			if got := NewReplicaBuf(n); &got[0] == &whole[0] {
				t.Fatalf("a %d-byte draw returned a subslice the caller still holds", n)
			}
		}
	}
}

func TestClientValidation(t *testing.T) {
	nn, _ := testClient(t, 4, 100)
	if _, err := NewClient(nil, stats.NewRNG(1)); err == nil {
		t.Fatal("nil namenode accepted")
	}
	if _, err := NewClient(nn, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	cl, err := NewClient(nn, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cl.BlockSize = 0
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(10), false); !errors.Is(err, ErrBadBlockSize) {
		t.Fatalf("err = %v", err)
	}
	cl.BlockSize = 100
	cl.Replication = 0
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", payload(10), false); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("err = %v", err)
	}
}

func TestRefreshAvailability(t *testing.T) {
	nn, _ := testClient(t, 4, 100)
	hb := nn.Heartbeat()
	if err := hb.ObserveUptime(0, 90); err != nil {
		t.Fatal(err)
	}
	if err := hb.ObserveInterruption(0, 10); err != nil {
		t.Fatal(err)
	}
	if n := nn.RefreshAvailability(); n != 1 {
		t.Fatalf("refreshed %d nodes, want 1", n)
	}
	if nn.Cluster().Node(0).Availability.Dedicated() {
		t.Fatal("node 0 availability not refreshed")
	}
}
