package dfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
)

// fakeClock is a lease clock the test moves by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// leaseFixture is resilienceFixture with a hand-moved lease clock and
// replication 2.
func leaseFixture(t *testing.T) (*NameNode, *Client, *fakeClock) {
	t.Helper()
	nn, cl := resilienceFixture(t, 4)
	cl.Replication = 2
	clk := &fakeClock{t: time.Unix(1000, 0)}
	nn.SetLeaseClock(clk.now)
	return nn, cl, clk
}

// writeAllocated runs step two of a create by hand and returns what a
// networked writer would report.
func writeAllocated(t *testing.T, nn *NameNode, a *Allocation, data []byte) []BlockMeta {
	t.Helper()
	blocks, err := nn.io.WriteBlocks(context.Background(), a, bytes.NewReader(data), RetryPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

func storedReplicas(nn *NameNode, blocks []BlockMeta) int {
	n := 0
	for _, bm := range blocks {
		for id := 0; id < nn.Cluster().Len(); id++ {
			if dn, err := nn.DataNode(cluster.NodeID(id)); err == nil && dn.Has(bm.ID) {
				n++
			}
		}
	}
	return n
}

// TestCompleteAcceptsOnlyWhatItLeased: the ids, the name and the block
// count must be the allocation's own; anything else is the typed,
// transient lease error and publishes nothing.
func TestCompleteAcceptsOnlyWhatItLeased(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	ctx := context.Background()
	data := bytes.Repeat([]byte("x"), 250) // 3 blocks of 100
	a, err := cl.Allocate(ctx, "f", int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	blocks := writeAllocated(t, nn, a, data)

	refused := func(what, name string, bs []BlockMeta) {
		t.Helper()
		_, err := nn.Complete(name, bs)
		if !errors.Is(err, ErrLeaseExpired) || !IsTransient(err) {
			t.Fatalf("%s: err = %v, want transient ErrLeaseExpired", what, err)
		}
		if nn.Exists(name) {
			t.Fatalf("%s: published %q", what, name)
		}
	}
	refused("other name", "g", blocks)
	refused("short report", "f", blocks[:2])
	refused("no blocks", "f", nil)
	forged := append([]BlockMeta(nil), blocks...)
	forged[1].ID += 100
	refused("foreign id", "f", forged)

	// A report naming a node outside the cluster is refused for what it
	// is, and spends the lease.
	bad := append([]BlockMeta(nil), blocks...)
	bad[0].Replicas = []cluster.NodeID{99}
	if _, err := nn.Complete("f", bad); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("bad holder: err = %v, want ErrUnknownNode", err)
	}
	refused("after a spent lease", "f", blocks)
}

// TestCompleteTakesSizesFromTheLease: name, sizes and replication are
// the NameNode's own record, whatever the writer reports.
func TestCompleteTakesSizesFromTheLease(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	data := bytes.Repeat([]byte("y"), 150)
	a, err := cl.Allocate(context.Background(), "f", int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	blocks := writeAllocated(t, nn, a, data)
	blocks[0].Size, blocks[1].File, blocks[1].Index = 7, "other", 9
	fm, err := nn.Complete("f", blocks)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Size != 150 || fm.Replication != 2 || fm.Blocks[0].Size != 100 || fm.Blocks[1].Size != 50 ||
		fm.Blocks[1].File != "f" || fm.Blocks[1].Index != 1 {
		t.Fatalf("published meta took the writer's word: %+v", fm)
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFileContext(context.Background(), "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

// TestGrantReadsTheClockAmortizedOnce: leases left open do not make each
// allocation read the clock once per lease outstanding. 10 000 grants,
// none completed, read it a small constant times 10 000 (sweeping the
// whole table on every grant read it about N²/2 times); leased still
// answers for every lease, and once they expire a later sweep forgets
// them.
func TestGrantReadsTheClockAmortizedOnce(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	var reads int
	now := time.Unix(1000, 0)
	nn.SetLeaseClock(func() time.Time { reads++; return now })
	const n = 10000
	ctx := context.Background()
	grant := func(name string) BlockID {
		a, err := cl.Allocate(ctx, name, 50, false)
		if err != nil {
			t.Fatal(err)
		}
		return a.Blocks[0].ID
	}
	first := make([]BlockID, n)
	for i := range first {
		first[i] = grant(fmt.Sprintf("open%d", i))
	}
	if reads > 4*n {
		t.Fatalf("%d grants read the lease clock %d times, want at most %d", n, reads, 4*n)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if !nn.leases.leased(first[i]) {
			t.Fatalf("lease %d of %d (block %d) not seen", i, n, first[i])
		}
	}
	if next := first[n-1] + 1; nn.leases.leased(next) {
		t.Fatalf("block %d, never leased, reads as leased", next)
	}

	now = now.Add(leaseTTL + time.Second)
	if nn.leases.leased(first[0]) || nn.leases.leased(first[n-1]) {
		t.Fatal("an expired lease still shields its block")
	}
	for i := 0; i < n+64; i++ {
		grant(fmt.Sprintf("fresh%d", i))
	}
	if left := len(nn.leases.byFirst); left > n+64 {
		t.Fatalf("%d leases held after %d expired and %d were granted, want the expired ones forgotten", left, n, n+64)
	}
}

// TestLeaseShieldsReplicasUntilItExpires: the scrubber leaves an
// unpublished create's replicas alone while its lease lives — to the
// context's deadline, or leaseTTL without one — and removes exactly
// those replicas afterwards; the Complete that comes too late is
// refused.
func TestLeaseShieldsReplicasUntilItExpires(t *testing.T) {
	nn, cl, clk := leaseFixture(t)
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "kept", []byte("kept bytes"), false); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("z"), 120)

	dl, cancel := context.WithDeadline(context.Background(), clk.t.Add(30*time.Second))
	defer cancel()
	timed, err := cl.Allocate(dl, "timed", int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	open, err := cl.Allocate(context.Background(), "open", int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	timedBlocks := writeAllocated(t, nn, timed, data)
	openBlocks := writeAllocated(t, nn, open, data)

	scrub := func() int {
		t.Helper()
		n, err := nn.ScrubOrphans(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := scrub(); n != 0 {
		t.Fatalf("scrub removed %d replicas of live leases", n)
	}
	clk.t = clk.t.Add(31 * time.Second) // past the deadline, within leaseTTL
	if n, want := scrub(), storedReplicas(nn, timedBlocks); n != 4 || want != 0 {
		t.Fatalf("scrub after the deadline removed %d, %d of its replicas remain; want 4 removed (2 blocks x 2)", n, want)
	}
	if storedReplicas(nn, openBlocks) != 4 {
		t.Fatal("scrub touched a deadline-free lease before leaseTTL")
	}
	if _, err := nn.Complete("timed", timedBlocks); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late complete: err = %v, want ErrLeaseExpired", err)
	}
	if _, err := nn.Complete("open", openBlocks); err != nil {
		t.Fatalf("complete within leaseTTL: %v", err)
	}
	clk.t = clk.t.Add(2 * leaseTTL)
	if n := scrub(); n != 0 {
		t.Fatalf("scrub removed %d replicas of published files", n)
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kept", "open"} {
		if _, err := cl.ReadFileContext(context.Background(), name); err != nil {
			t.Fatalf("read %q after scrubs: %v", name, err)
		}
	}
}

// TestScrubCollectsSurplusCopyOfLiveBlock: a torn pipeline can leave a
// copy of a published block on a node the file does not list. The
// scrubber judges each replica by (block, holder), so it removes that
// copy and nothing the file lists.
func TestScrubCollectsSurplusCopyOfLiveBlock(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	ctx := context.Background()
	data := bytes.Repeat([]byte("s"), 250) // 3 blocks, 2 replicas each
	fm, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", data, false)
	if err != nil {
		t.Fatal(err)
	}
	bm := fm.Blocks[0]
	stray := cluster.NodeID(-1)
	for id := 0; id < nn.Cluster().Len() && stray < 0; id++ {
		if !slices.Contains(bm.Replicas, cluster.NodeID(id)) {
			stray = cluster.NodeID(id)
		}
	}
	s, err := nn.Store(stray)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, bm.ID, data[:bm.Size]); err != nil {
		t.Fatal(err)
	}

	if n, err := nn.ScrubOrphans(ctx); err != nil || n != 1 {
		t.Fatalf("scrub = %d, %v; want the one surplus copy removed", n, err)
	}
	if mustDataNode(t, nn, stray).Has(bm.ID) {
		t.Fatalf("surplus copy of block %d survived on unlisted node %d", bm.ID, stray)
	}
	if n := storedReplicas(nn, fm.Blocks); n != 6 {
		t.Fatalf("%d replicas stored after the scrub, want the 6 listed", n)
	}
	if got, err := cl.ReadFileContext(context.Background(), "f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after scrub: %v", err)
	}
	if err := nn.CheckConsistency(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCreateDropsItsLease: an in-process create that cannot
// write leaves no lease behind to shield anything.
func TestFailedCreateDropsItsLease(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	for id := 0; id < 4; id++ {
		mustDataNode(t, nn, cluster.NodeID(id)).SetUp(false)
	}
	cl.Retry = RetryPolicy{}
	if _, _, err := cl.CopyFromLocalReportContext(context.Background(), "f", []byte("nowhere to go"), false); !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("err = %v, want ErrNoLiveNodes", err)
	}
	if n := len(nn.leases.byFirst); n != 0 {
		t.Fatalf("%d leases left after a failed create", n)
	}
}

// TestBlockIDsAreReservedAheadOfUse: with a reservation installed, no
// id is handed out at or above the last ceiling the hook acknowledged;
// the allocator restarts at the recovered ceiling, not at the highest
// published id; and a hook that cannot make the ceiling durable refuses
// the allocation without minting anything.
func TestBlockIDsAreReservedAheadOfUse(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	ctx := context.Background()
	var saved []BlockID
	var failing error
	nn.ReserveBlockIDs(0, func(c BlockID) error {
		if failing != nil {
			return failing
		}
		saved = append(saved, c)
		return nil
	})

	a, err := cl.Allocate(ctx, "a", 250, false) // 3 blocks of 100
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 || saved[0] != idStride || a.Blocks[0].ID != 0 {
		t.Fatalf("first allocation: reserved %v, first id %d; want one reservation of %d and id 0", saved, a.Blocks[0].ID, idStride)
	}
	if _, err := cl.Allocate(ctx, "b", 250, false); err != nil || len(saved) != 1 {
		t.Fatalf("allocation under the ceiling: err %v, reservations %v; want no new one", err, saved)
	}
	// An allocation that crosses the ceiling reserves past its own end.
	big, err := cl.Allocate(ctx, "big", 100*(idStride+10), false)
	if err != nil {
		t.Fatal(err)
	}
	last := big.Blocks[len(big.Blocks)-1].ID
	if len(saved) != 2 || saved[1] <= last || saved[1]%idStride != 0 {
		t.Fatalf("crossing allocation ends at id %d, reserved %v", last, saved)
	}

	// What a restart does: nothing published, only the ceiling survives.
	reborn, cl2 := resilienceFixture(t, 4)
	reborn.ReserveBlockIDs(saved[1], func(c BlockID) error { saved = append(saved, c); return nil })
	c, err := cl2.Allocate(ctx, "c", 50, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Blocks[0].ID != saved[1] || len(saved) != 3 || saved[2] <= saved[1] {
		t.Fatalf("after the restart: first id %d, reservations %v; want ids from the recovered ceiling %d under a new one", c.Blocks[0].ID, saved, saved[1])
	}

	failing = errors.New("disk full")
	before := nn.nextBlock.Load()
	if _, err := cl.Allocate(ctx, "d", 100*(2*idStride), false); !errors.Is(err, ErrJournal) {
		t.Fatalf("allocation past a ceiling that cannot be saved: err = %v, want ErrJournal", err)
	}
	if nn.nextBlock.Load() != before {
		t.Fatal("a refused allocation minted ids")
	}
}

// TestAllocateBoundsTheBlockCount: the size is the caller's word, so the
// block count it implies is bounded before anything is sized by it, and
// computed without overflow.
func TestAllocateBoundsTheBlockCount(t *testing.T) {
	nn, cl, _ := leaseFixture(t)
	ctx := context.Background()
	for _, size := range []int64{math.MaxInt64, 1 << 55, 100*MaxFileBlocks + 1} {
		if _, err := cl.Allocate(ctx, "huge", size, false); !errors.Is(err, ErrFileTooLarge) || IsTransient(err) {
			t.Errorf("allocate of %d bytes: err = %v, want permanent ErrFileTooLarge", size, err)
		}
	}
	if nn.nextBlock.Load() != 0 || len(nn.leases.byFirst) != 0 {
		t.Fatal("a refused allocation minted ids or took a lease")
	}
	if a, err := cl.Allocate(ctx, "edge", 100*MaxFileBlocks, false); err != nil || len(a.Blocks) != MaxFileBlocks {
		t.Fatalf("allocate of exactly MaxFileBlocks blocks: %v", err)
	}
}
