package dfs

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// leaseTTL bounds an allocation whose context carried no deadline: a
// writer that vanished without one stops shielding its replicas from
// ScrubOrphans (which every service repair scan runs) after this long.
// It must outlast the slowest honest deadline-free put; a put that
// needs longer sets a deadline.
const leaseTTL = time.Hour

// idStride is how many block ids one durable reservation covers (see
// ReserveBlockIDs): one journal write per idStride blocks, and at most
// that many ids skipped by a restart.
const idStride = 4096

// lease is one allocation between allocate and Complete: the block ids
// first..first+len(Blocks)-1, promised to alloc.Name.
type lease struct {
	alloc  *Allocation
	expiry time.Time
	// pinned marks a lease Complete is publishing under: it no longer
	// expires, so ScrubOrphans cannot slip between the expiry check and
	// the publish.
	pinned bool
}

// leaseTable is the NameNode's in-memory record of allocations whose
// files are not yet published, and the one place block ids are minted.
// It closes the window between allocate and Complete: Complete accepts
// only ids leased here, and ScrubOrphans leaves leased replicas alone.
// Leases are not journaled — a restarted NameNode has forgotten every
// one, refuses the Completes of writes that straddled the crash (they
// start over), and its next ScrubOrphans collects what they left. What
// is journaled is how far the ids may have got, so the restarted
// NameNode never hands a forgotten writer's ids to somebody else.
type leaseTable struct {
	mu      sync.Mutex
	now     func() time.Time // the clock expiries are judged by
	byFirst map[BlockID]*lease

	// firsts holds byFirst's keys in ascending order — ids are minted in
	// order under mu — and, until the next sweep, the keys of leases
	// dropped since the last one. A sweep forgets expired leases and
	// compacts firsts; a grant runs one once firsts has doubled since
	// the last (swept is its length then), so a grant costs amortized
	// O(1) and leased a binary search.
	firsts []BlockID
	swept  int

	// ceiling is the durable id reservation: every id below it may have
	// been handed out. reserve, when non-nil, makes a higher one durable;
	// ids are minted only below a ceiling it has acknowledged.
	ceiling int64
	reserve func(ceiling BlockID) error
}

// newLeaseTable starts on a clock that stands still at the zero time,
// so the one expiry rule below lets nothing run out: an in-process
// create is one function call that always settles its own lease, and
// this package may not read the wall clock (seeded simulations run
// through it). Whoever serves writers that can vanish installs a clock
// that moves.
func newLeaseTable() leaseTable {
	return leaseTable{now: func() time.Time { return time.Time{} }, byFirst: make(map[BlockID]*lease)}
}

// SetLeaseClock installs the clock allocation leases expire by: the
// wall clock on a networked NameNode, whose deadlines cross the wire as
// wall-clock budgets; a hand-moved one in tests. Call before serving.
func (nn *NameNode) SetLeaseClock(now func() time.Time) {
	nn.leases.mu.Lock()
	defer nn.leases.mu.Unlock()
	nn.leases.now = now
}

// ReserveBlockIDs makes block ids unique across NameNode incarnations.
// ceiling is what a previous incarnation last reserved (0 for none):
// every id below it may be in some writer's hands, so the allocator
// starts no lower. From here on reserve is called — write-ahead, once
// per idStride ids — before any id at or above the reserved ceiling is
// handed out, and must make its argument durable before returning; the
// durable layer hands the newest value back here after a restart. A
// failed reserve refuses the allocation with ErrJournal. Call it after
// RestoreShard and before serving, beside SetShardJournals.
func (nn *NameNode) ReserveBlockIDs(ceiling BlockID, reserve func(ceiling BlockID) error) {
	t := &nn.leases
	t.mu.Lock()
	defer t.mu.Unlock()
	if int64(ceiling) > nn.nextBlock.Load() {
		nn.nextBlock.Store(int64(ceiling))
	}
	t.ceiling = nn.nextBlock.Load()
	t.reserve = reserve
}

func (t *leaseTable) live(l *lease) bool {
	return l.pinned || t.now().Before(l.expiry)
}

// grant mints a's block ids from next and leases them until ctx's
// deadline, or for leaseTTL when it has none. Minting and leasing are
// one step under the table lock, so no id below ScrubOrphans'
// high-water mark is ever unleased before its file is published.
func (t *leaseTable) grant(ctx context.Context, a *Allocation, next *atomic.Int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.firsts) >= 2*t.swept+64 {
		t.sweep()
	}
	n := int64(len(a.Blocks))
	if end := next.Load() + n; t.reserve != nil && end > t.ceiling {
		ceiling := (end/idStride + 1) * idStride
		if err := t.reserve(BlockID(ceiling)); err != nil {
			return fmt.Errorf("%w: reserve block ids below %d: %w", ErrJournal, ceiling, err)
		}
		t.ceiling = ceiling
	}
	first := BlockID(next.Add(n) - n)
	for i := range a.Blocks {
		a.Blocks[i].ID = first + BlockID(i)
	}
	l := &lease{alloc: a}
	var ok bool
	if l.expiry, ok = ctx.Deadline(); !ok {
		l.expiry = t.now().Add(leaseTTL)
	}
	t.byFirst[first] = l
	t.firsts = append(t.firsts, first)
	return nil
}

// sweep forgets every expired lease and compacts firsts to the keys
// still leased.
func (t *leaseTable) sweep() {
	kept := t.firsts[:0]
	for _, first := range t.firsts {
		if l, ok := t.byFirst[first]; ok && t.live(l) {
			kept = append(kept, first)
		} else {
			delete(t.byFirst, first)
		}
	}
	t.firsts, t.swept = kept, len(kept)
}

// pin finds the live lease the reported blocks belong to and makes it
// unexpirable until drop. The blocks must be exactly the ids leased to
// name, in order. A lease found expired is forgotten on the spot: once
// refused, always refused.
func (t *leaseTable) pin(name string, blocks []BlockMeta) (*Allocation, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: complete %q reports no blocks", ErrLeaseExpired, name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.byFirst[blocks[0].ID]
	if ok && !t.live(l) {
		delete(t.byFirst, blocks[0].ID)
		ok = false
	}
	if !ok || l.pinned || l.alloc.Name != name || len(blocks) != len(l.alloc.Blocks) {
		return nil, fmt.Errorf("%w: complete %q from block %d", ErrLeaseExpired, name, blocks[0].ID)
	}
	for i, bm := range blocks {
		if bm.ID != l.alloc.Blocks[i].ID {
			return nil, fmt.Errorf("%w: complete %q reports block %d, leased %d", ErrLeaseExpired, name, bm.ID, l.alloc.Blocks[i].ID)
		}
	}
	l.pinned = true
	return l.alloc, nil
}

// drop forgets a's lease.
func (t *leaseTable) drop(a *Allocation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byFirst, a.Blocks[0].ID)
}

// leased reports whether a live lease covers block id. Leases cover
// disjoint id ranges, so only the one with the greatest first id not
// above id can.
func (t *leaseTable) leased(id BlockID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, found := slices.BinarySearch(t.firsts, id)
	if !found {
		i--
	}
	if i < 0 {
		return false
	}
	l, ok := t.byFirst[t.firsts[i]]
	return ok && id < t.firsts[i]+BlockID(len(l.alloc.Blocks)) && t.live(l)
}
