package hadoopsim

// candHeap is the speculation index: a binary max-heap over the
// running attempts the active policy may still duplicate, keyed by an
// upper bound on the policy's score for the attempt.
//
//   - reactive: score = model-expected remaining time of the attempt;
//     members are the attempts of tasks never duplicated.
//   - predictive: score = probability the executor is interrupted
//     before the attempt ends; members as for reactive, parametric
//     executors only.
//   - redundant: score = -(active attempts, task id), exact; members
//     are the attempts of tasks below their attempt budget.
//
// The first two scores only fall as the clock advances, so any score
// computed for an attempt remains an upper bound later and is written
// back as its key. A pick walks the heap from the root and skips a
// subtree as soon as its root's key cannot beat the floor or the best
// score so far.
type candHeap struct {
	items []*attempt
	// walk lists the heap positions the current pick looked at, in
	// increasing order.
	walk []int
}

func (h *candHeap) push(a *attempt, key float64) {
	a.key = key
	a.heapIdx = len(h.items)
	h.items = append(h.items, a)
	h.up(a.heapIdx)
}

// remove deletes a from the heap if it is a member.
func (h *candHeap) remove(a *attempt) {
	i := a.heapIdx
	if i < 0 {
		return
	}
	a.heapIdx = -1
	last := len(h.items) - 1
	moved := h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	if i == last {
		return
	}
	h.items[i] = moved
	moved.heapIdx = i
	h.up(i)
	h.down(moved.heapIdx)
}

func (h *candHeap) up(i int) {
	a := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key >= a.key {
			break
		}
		h.items[i] = h.items[parent]
		h.items[i].heapIdx = i
		i = parent
	}
	h.items[i] = a
	a.heapIdx = i
}

func (h *candHeap) down(i int) {
	a := h.items[i]
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.items[r].key > h.items[child].key {
			child = r
		}
		if h.items[child].key <= a.key {
			break
		}
		h.items[i] = h.items[child]
		h.items[i].heapIdx = i
		i = child
	}
	h.items[i] = a
	a.heapIdx = i
}

// pick returns the member with the highest score above floor that
// admit accepts; among equal scores, the one earliest in
// simulator.running — what a scan of the running list in order, keeping
// the first strict maximum, returns — and that score, or floor when
// there is none. score must not exceed the member's key; admit is
// asked only about members that would become the new best.
func (h *candHeap) pick(floor float64, score func(*attempt) float64, admit func(*attempt) bool) (best *attempt, bestScore float64) {
	bestScore = floor
	if len(h.items) == 0 {
		return nil, bestScore
	}
	walk := append(h.walk[:0], 0)
	for k := 0; k < len(walk); k++ {
		i := walk[k]
		a := h.items[i]
		// Every key below this one in the tree is no larger. An equal
		// key may still hide an equal score earlier in running order.
		if a.key < bestScore || (best == nil && a.key <= floor) {
			continue
		}
		sc := score(a)
		if sc < a.key {
			a.key = sc
		}
		if beats(a, sc, best, bestScore) && admit(a) {
			best, bestScore = a, sc
		}
		if l := 2*i + 1; l < len(h.items) {
			walk = append(walk, l)
			if l+1 < len(h.items) {
				walk = append(walk, l+1)
			}
		}
	}
	// Lowered keys break the heap order only downwards, and only at
	// visited positions, which form a tree hanging from the root.
	// Sifting them down deepest first (Floyd's construction) repairs
	// it; any other order can leave a lowered key above a larger one.
	for k := len(walk) - 1; k >= 0; k-- {
		h.down(walk[k])
	}
	h.walk = walk
	return best, bestScore
}

// beats is the victim order: a higher score, or an equal one earlier
// in simulator.running. With no best yet, bestScore is the floor to
// exceed.
func beats(a *attempt, score float64, best *attempt, bestScore float64) bool {
	//lint:ignore floateq equal scores are the tie the running-order rule exists for; both sides come from the same formula
	return score > bestScore || (best != nil && score == bestScore && a.runIdx < best.runIdx)
}
