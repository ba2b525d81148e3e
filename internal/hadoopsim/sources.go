package hadoopsim

import "math"

// Closed sources.
//
// A node whose uplink is booked further ahead than the transfer-queue
// allowance cannot start serving another fetch until that backlog has
// drained to within the allowance. While it is up, it is the source
// every non-holder must fetch from for the tasks it is the first
// holder of, so until then those tasks are out of every such node's
// reach: their queue entries are congested for it, and their attempts
// cannot be duplicated on it. In the tail of a large run this is most
// of the pending queue and most of the speculation candidates, offer
// after offer.
//
// So such a source is closed: the queue entries of its pending tasks
// leave s.open and their attempts leave s.cand, to be counted instead
// (nodeSim.parkedLive, attempt.parked). The uplink cursor cannot move
// while the source is closed — nothing can start a fetch from it — so
// the instant it reopens is known: cursor - allowance. Reopening is
// lazy, at the next decision that looks (reopenDue), or immediate when
// the node goes down and stops being anyone's source.
//
// Two things keep the answers exact. A thief that itself holds the
// block of a parked task needs no fetch; nodeSim.heldParkedLive
// counts those and heldParkedCand lists the parked attempts, and the
// decisions look at them as well. And a fruitless walk still
// owes the earliest instant a congested entry frees up: per closed
// source that is one value, whatever the number of entries parked
// under it.

// closedBy returns the closed source t is parked under, or -1.
func (s *simulator) closedBy(t *task) int {
	if h := t.holders[0]; s.nodes[h].closed {
		return h
	}
	return -1
}

// sourceTasks calls fn, in submission order, for every unfinished task
// whose first holder is h, dropping the finished ones from h's source
// queue as it passes them. fn must not finish a task.
func (s *simulator) sourceTasks(h int, fn func(*task)) {
	ns := &s.nodes[h]
	kept := ns.srcQueue[:0]
	for _, id := range ns.srcQueue {
		if t := &s.tasks[id]; t.state != taskDone {
			kept = append(kept, id)
			fn(t)
		}
	}
	ns.srcQueue = kept
}

// setClosed closes or reopens source h, refiling everything sourced
// from it under the new regime.
func (s *simulator) setClosed(h int, closed bool) {
	s.sourceTasks(h, s.unfile)
	s.nodes[h].closed = closed
	s.sourceTasks(h, s.file)
	s.epoch++
}

// file makes t visible to the decisions: its queue entries if it is
// pending, its attempts if it is running. unfile is the inverse; both
// go by the task's current state and its source's current regime, so
// every change to either is bracketed by the pair.
func (s *simulator) file(t *task) {
	switch t.state {
	case taskPending:
		s.showEntries(t)
	case taskRunning:
		s.fileAttempts(t)
	}
}

func (s *simulator) unfile(t *task) {
	switch t.state {
	case taskPending:
		s.hideEntries(t)
	case taskRunning:
		s.unfileAttempts(t)
	}
}

// closedHeap orders the closed sources by uplink cursor, which stands
// still while they are closed: a binary min-heap whose pushes, pops and
// removals move entries exactly as container/heap's would, so sources
// with equal cursors reopen in the same order.
type closedHeap struct {
	s     *simulator
	nodes []int
}

func (c *closedHeap) less(i, j int) bool {
	return c.s.net.UplinkFree(c.nodes[i]) < c.s.net.UplinkFree(c.nodes[j])
}

func (c *closedHeap) swap(i, j int) { c.nodes[i], c.nodes[j] = c.nodes[j], c.nodes[i] }

func (c *closedHeap) push(h int) {
	c.nodes = append(c.nodes, h)
	c.up(len(c.nodes) - 1)
}

// remove deletes the entry at position k.
func (c *closedHeap) remove(k int) {
	n := len(c.nodes) - 1
	if n != k {
		c.swap(k, n)
		if !c.down(k, n) {
			c.up(k)
		}
	}
	c.nodes = c.nodes[:n]
}

func (c *closedHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !c.less(j, i) {
			break
		}
		c.swap(i, j)
		j = i
	}
}

// down sifts position i0 down within the first n entries and reports
// whether it moved.
func (c *closedHeap) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && c.less(r, j) {
			j = r
		}
		if !c.less(j, i) {
			break
		}
		c.swap(i, j)
		i = j
	}
	return i > i0
}

// closeIfBooked closes source h when its uplink has just been booked
// past the allowance.
func (s *simulator) closeIfBooked(h int, now float64) {
	if s.net.UplinkFree(h) > now+s.queueAllowance && !s.nodes[h].closed {
		s.setClosed(h, true)
		s.closedSrc.push(h)
	}
}

// reopenDue reopens every source whose backlog is within the
// allowance again.
func (s *simulator) reopenDue(now float64) {
	c := &s.closedSrc
	for len(c.nodes) > 0 && s.net.UplinkFree(c.nodes[0]) <= now+s.queueAllowance {
		s.setClosed(c.nodes[0], false)
		c.remove(0)
	}
}

// reopenDown reopens node h, which just went down, if it was closed.
func (s *simulator) reopenDown(h int) {
	if !s.nodes[h].closed {
		return
	}
	for k, c := range s.closedSrc.nodes {
		if c == h {
			s.closedSrc.remove(k)
			break
		}
	}
	s.setClosed(h, false)
}

// minParkedUp returns the smallest uplink cursor over the closed
// sources that have queue entries parked under them, +Inf when none
// has: a walk down the heap that stops at the first such source on
// every path and skips what cannot beat the best so far.
func (s *simulator) minParkedUp() float64 {
	c := s.closedSrc.nodes
	best := math.Inf(1)
	var stack [64]int // two children per level of a heap of at most 2^32 nodes
	n := 1            // stack[0] is the root
	for n > 0 {
		n--
		k := stack[n]
		if k >= len(c) {
			continue
		}
		up := s.net.UplinkFree(c[k])
		if up >= best {
			continue
		}
		if s.nodes[c[k]].parkedLive > 0 {
			best = up
			continue
		}
		stack[n], stack[n+1] = 2*k+1, 2*k+2
		n += 2
	}
	return best
}
