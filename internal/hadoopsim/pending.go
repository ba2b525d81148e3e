package hadoopsim

import (
	"math"
	"math/bits"
)

// The global pending queue and its index.
//
// s.pending holds task ids in queue order from s.pendHead on. Entries
// are never deleted in place: a task that starts from its holder's
// local queue leaves its entry behind, stale, and the entry is live
// again if that attempt aborts and the task re-pends (which appends a
// second entry). The queue order is history-dependent too, because a
// steal from the middle moves the head entry into the hole. Both are
// observable — they decide which task an idle node steals — so the
// index keeps the queue exactly as it is and adds, beside it:
//
//   - per task, the chain of its entries still in the queue
//     (task.qhead, s.pendLink), so a state change flips all of them;
//   - s.open, the ordered set of positions whose task is pending and
//     not parked under a closed source (sources.go), so a thief walks,
//     in queue order, only entries somebody might be able to fetch;
//   - s.fruitless, what one complete fruitless walk learned, which
//     answers the next thieves in O(1) until the queue, a node's
//     up/down state or a NIC cursor changes (s.epoch moves).

// posSet is an ordered set of queue positions: a bitmap with four
// summary levels (bit j of level l+1 says word j of level l is
// non-zero), so the next member at or after a position is found in a
// handful of word operations.
type posSet struct {
	levels [5][]uint64
	count  int
}

// extend makes room for positions below n.
func (b *posSet) extend(n int) {
	words := (n + 63) >> 6
	for l := range b.levels {
		for len(b.levels[l]) < words {
			b.levels[l] = append(b.levels[l], 0)
		}
		words = (words + 63) >> 6
	}
}

func (b *posSet) add(p int) {
	b.count++
	for l := range b.levels {
		w := &b.levels[l][p>>6]
		was := *w
		*w |= 1 << uint(p&63)
		if was != 0 {
			return
		}
		p >>= 6
	}
}

func (b *posSet) del(p int) {
	b.count--
	for l := range b.levels {
		w := &b.levels[l][p>>6]
		*w &^= 1 << uint(p&63)
		if *w != 0 {
			return
		}
		p >>= 6
	}
}

// next returns the smallest member >= p, or -1.
func (b *posSet) next(p int) int {
	l := 0
	for {
		w := p >> 6
		if w >= len(b.levels[l]) {
			return -1
		}
		if m := b.levels[l][w] >> uint(p&63); m != 0 {
			p += bits.TrailingZeros64(m)
			break
		}
		// Nothing left in this word: look for the next non-empty word
		// one level up.
		p = w + 1
		if l++; l == len(b.levels) {
			return -1
		}
	}
	for ; l > 0; l-- {
		p = p<<6 + bits.TrailingZeros64(b.levels[l-1][p])
	}
	return p
}

func (b *posSet) reset() {
	for l := range b.levels {
		b.levels[l] = b.levels[l][:0]
	}
	b.count = 0
}

// fruitlessWalk is what a walk over every open entry that found
// nothing for its thief learned about the queue, thief-independent.
type fruitlessWalk struct {
	// epoch is the simulator.epoch the walk ran in; it speaks for the
	// current state only while they are equal.
	epoch uint64
	// stamp marks, in simulator.holdsLive, the nodes holding a block
	// of some open entry's task.
	stamp uint64
	// minUp is the smallest uplink cursor over the first up holders
	// of the open entries and the closed sources with parked entries
	// (+Inf when there is neither).
	minUp float64
	// noSource: some open entry's task has no up holder.
	noSource bool
}

// enqueue appends a queue entry for task t; showEntries makes it
// count.
func (s *simulator) enqueue(t *task) {
	p := len(s.pending)
	s.pending = append(s.pending, t.id)
	s.pendLink = append(s.pendLink, t.qhead)
	t.qhead = int32(p)
	s.open.extend(p + 1)
}

// showEntries makes every queued entry of t, which is pending, count:
// in s.open, or parked under its closed source. hideEntries undoes it
// before t stops being pending or its source changes regime.
func (s *simulator) showEntries(t *task) { s.countEntries(t, 1) }
func (s *simulator) hideEntries(t *task) { s.countEntries(t, -1) }

func (s *simulator) countEntries(t *task, sign int) {
	src := s.closedBy(t)
	for p := t.qhead; p >= 0; p = s.pendLink[p] {
		switch {
		case src >= 0:
			s.nodes[src].parkedLive += sign
			s.parkedEntries += sign
		case sign > 0:
			s.open.add(int(p))
		default:
			s.open.del(int(p))
		}
	}
	if src >= 0 {
		for _, h := range t.holders {
			s.nodes[h].heldParkedLive += sign
			s.offerNext(h)
		}
	}
	s.epoch++
}

// relinkEntry replaces position from in t's entry chain with to; a
// negative to unlinks the entry.
func (s *simulator) relinkEntry(t *task, from, to int32) {
	link := &t.qhead
	for *link != from {
		link = &s.pendLink[*link]
	}
	if to < 0 {
		*link = s.pendLink[from]
		return
	}
	s.pendLink[to] = s.pendLink[from]
	*link = to
}

// compactPending advances the queue head past entries whose task is
// not pending. When this happens is observable (an entry dropped here
// cannot come back to life), so it happens exactly where the plain
// scan did it: at the top of every popStealable.
func (s *simulator) compactPending() {
	for s.pendHead < len(s.pending) {
		t := &s.tasks[s.pending[s.pendHead]]
		if t.state == taskPending {
			return
		}
		s.relinkEntry(t, int32(s.pendHead), -1)
		s.pendHead++
	}
	// Fully drained: restart the positions to bound memory.
	s.pending = s.pending[:0]
	s.pendLink = s.pendLink[:0]
	s.pendHead = 0
	s.open.reset()
}

// popStealable removes and returns the first pending task the node can
// execute now. Tasks whose every holder is down are skipped when
// source fetches are forbidden; tasks whose fetch would queue too far
// behind other transfers are skipped too, and the earliest time one of
// those fetch paths frees up is returned so the caller can retry.
// retryAt is only meaningful when ok is false.
func (s *simulator) popStealable(i int) (tid int, ok bool, retryAt float64) {
	s.compactPending()
	idx, ok, retryAt := s.findStealable(i)
	if !ok {
		return 0, false, retryAt
	}
	// Remove from the queue: the head entry moves into the hole
	// (keeps FIFO fairness close enough while staying O(1)).
	tid = s.pending[idx]
	t := &s.tasks[tid]
	s.hideEntries(t)
	s.relinkEntry(t, int32(idx), -1)
	s.showEntries(t) // its other entries stay until it starts
	if idx != s.pendHead {
		// The head entry is live (compaction just ran) and belongs to
		// another task: the first passing entry of a task is its
		// earliest, and the head precedes idx.
		head := &s.tasks[s.pending[s.pendHead]]
		s.hideEntries(head)
		s.pending[idx] = head.id
		s.relinkEntry(head, int32(s.pendHead), int32(idx))
		s.showEntries(head)
	}
	s.pendHead++
	return tid, true, retryAt
}

// findStealable is the deciding half of popStealable: the position of
// the first live entry node i may take, or the earliest instant a
// skipped entry is worth revisiting. It leaves the queue alone.
func (s *simulator) findStealable(i int) (idx int, ok bool, retryAt float64) {
	retryAt = math.Inf(1)
	if s.open.count+s.parkedEntries == 0 {
		return 0, false, retryAt
	}
	now := s.eng.Now()
	ns := &s.nodes[i]
	allowSource := s.cfg.SourcePenalty >= 0
	fw := &s.fruitless
	if fw.epoch == s.epoch && ns.heldParkedLive == 0 && s.holdsLive[i] != fw.stamp && !(fw.noSource && allowSource) {
		// Node i holds none of the live tasks and none is waiting for
		// a source re-ingest, so every entry it could take needs a
		// fetch from the entry's first up holder. The earliest any of
		// those can start is set by the freest of these uplinks and
		// by i's own downlink; past the allowance, all are congested.
		if est := s.fetchStart(i, now, fw.minUp); est > now+s.queueAllowance {
			return 0, false, est - s.queueAllowance
		}
	}
	// A parked entry whose block node i holds needs no fetch; the
	// first of them bounds the walk.
	held := -1
	if ns.heldParkedLive > 0 {
		held = s.firstHeldParked(i)
	}

	fw.epoch = 0
	fw.stamp++
	fw.minUp = math.Inf(1)
	fw.noSource = false
	for p := s.open.next(s.pendHead); p >= 0 && (held < 0 || p < held); p = s.open.next(p + 1) {
		t := &s.tasks[s.pending[p]]
		local := false
		for _, h := range t.holders {
			s.holdsLive[h] = fw.stamp
			local = local || h == i
		}
		if !local {
			src := s.upHolder(t)
			if src < 0 {
				fw.noSource = true
				if !allowSource {
					continue // unfetchable for now
				}
			} else {
				fw.minUp = math.Min(fw.minUp, s.net.UplinkFree(src))
				est, err := s.net.EarliestStart(now, src, i)
				if err != nil {
					s.err = err
					return 0, false, retryAt
				}
				if est > now+s.queueAllowance {
					// Fetch path congested; revisit when it frees.
					if est-s.queueAllowance < retryAt {
						retryAt = est - s.queueAllowance
					}
					continue
				}
			}
			if s.cfg.Scheduler == SchedulerAvailabilityAware && !s.stealWorthwhile(i, t, src) {
				// Leaving the task with its healthier holder beats a
				// migration; recheck after roughly one task length as
				// backlogs drain.
				if rt := now + s.taskGamma; rt < retryAt {
					retryAt = rt
				}
				continue
			}
		}
		return p, true, retryAt
	}
	if held >= 0 {
		return held, true, retryAt
	}
	// The parked entries are congested too, each until its source's
	// backlog is back within the allowance; the first source to get
	// there speaks for all of them.
	if up := s.minParkedUp(); !math.IsInf(up, 1) {
		fw.minUp = math.Min(fw.minUp, up)
		if rt := s.fetchStart(i, now, up) - s.queueAllowance; rt < retryAt {
			retryAt = rt
		}
	}
	fw.epoch = s.epoch
	return 0, false, retryAt
}

// fetchStart returns the earliest instant node i could start fetching
// from the freest of a set of sources, upFree being the smallest
// uplink cursor among them.
func (s *simulator) fetchStart(i int, now, upFree float64) float64 {
	return math.Max(now, math.Max(upFree, s.net.DownlinkFree(i)))
}

// firstHeldParked returns the earliest queue entry among the parked
// pending tasks node i holds a block of, or -1.
func (s *simulator) firstHeldParked(i int) int {
	first := int32(-1)
	ns := &s.nodes[i]
	for ns.settledHead < len(ns.localQueue) && s.tasks[ns.localQueue[ns.settledHead]].state == taskDone {
		ns.settledHead++
	}
	for _, id := range ns.localQueue[ns.settledHead:] {
		t := &s.tasks[id]
		if t.state != taskPending || s.closedBy(t) < 0 {
			continue
		}
		for p := t.qhead; p >= 0; p = s.pendLink[p] {
			if first < 0 || p < first {
				first = p
			}
		}
	}
	return int(first)
}
