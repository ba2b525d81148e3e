package hadoopsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
)

// The differential oracle. The ref* functions below are the linear
// scans the simulator used before its scheduling decisions were
// indexed, kept as they were (a mutation is turned into a returned
// value where the scan had one, nothing else). The stepping test
// drives every cell of the behaviour matrix on a small cluster one
// engine event at a time and, between events, asks the indexed
// decision and the scan the same question for every node.

// refFindStealable is the seed's popStealable up to the point where
// it removes the entry: the position and task of the first pending
// task node i can execute now, and the earliest retry instant over the
// entries skipped before it. (The seed first advanced the queue head
// past settled entries; skipping them in the loop is the same walk.)
func refFindStealable(s *simulator, i int) (idx int, ok bool, retryAt float64) {
	now := s.eng.Now()
	retryAt = math.Inf(1)
	allowSource := s.cfg.SourcePenalty >= 0
	queueAllowance := math.Inf(1)
	if s.cfg.TransferQueueFactor >= 0 {
		queueAllowance = s.cfg.TransferQueueFactor * s.net.TransferTime(s.cfg.BlockBytes)
	}
	for idx := s.pendHead; idx < len(s.pending); idx++ {
		id := s.pending[idx]
		t := &s.tasks[id]
		if t.state != taskPending {
			continue
		}
		if !contains(t.holders, i) {
			src := s.upHolder(t)
			if src < 0 {
				if !allowSource {
					continue // unfetchable for now
				}
			} else {
				est, err := s.net.EarliestStart(now, src, i)
				if err != nil {
					panic(err)
				}
				if est > now+queueAllowance {
					// Fetch path congested; revisit when it frees.
					if est-queueAllowance < retryAt {
						retryAt = est - queueAllowance
					}
					continue
				}
			}
			if s.cfg.Scheduler == SchedulerAvailabilityAware && !s.stealWorthwhile(i, t, src) {
				if rt := now + s.taskGamma; rt < retryAt {
					retryAt = rt
				}
				continue
			}
		}
		return idx, true, retryAt
	}
	return 0, false, retryAt
}

// refPickSpeculative is the seed's pickSpeculative. The seed also
// skipped an attempt whose E[T] over its full span (precomputed at
// launch) could not beat the best so far; that filter only saved work
// — the value it compares is an upper bound of the one compared
// below — and the field it read is gone.
func refPickSpeculative(s *simulator, i int) *attempt {
	now := s.eng.Now()
	ns := &s.nodes[i]
	myAvail := s.cfg.Cluster.Node(cluster.NodeID(i)).Availability
	dupCost := s.net.TransferTime(s.cfg.BlockBytes) + myAvail.ExpectedTaskTime(s.taskGamma/ns.rate)

	var best *attempt
	bestRemaining := dupCost // only beat candidates worse than the cost
	for _, a := range s.running {
		if a.task.hasDuplicate || a.task.activeAttempts != 1 {
			continue
		}
		if !contains(a.task.holders, i) {
			src := s.upHolder(a.task)
			if src < 0 {
				if s.cfg.SourcePenalty < 0 {
					continue // block unreachable for the would-be duplicate
				}
			} else if s.cfg.TransferQueueFactor >= 0 {
				est, err := s.net.EarliestStart(now, src, i)
				if err != nil {
					panic(err)
				}
				if est > now+s.cfg.TransferQueueFactor*s.net.TransferTime(s.cfg.BlockBytes) {
					continue // fetch path too congested to help
				}
			}
		}
		on := s.cfg.Cluster.Node(cluster.NodeID(a.node)).Availability
		rem := a.plannedEnd - now
		if rem < 0 {
			rem = 0
		}
		expected := on.ExpectedTaskTime(rem)
		if expected > bestRemaining {
			bestRemaining = expected
			best = a
		}
	}
	return best
}

// refDuplicateReachable is the seed's duplicateReachable.
func refDuplicateReachable(s *simulator, a *attempt, i int, now float64) (ok bool, retryAt float64) {
	retryAt = math.Inf(1)
	t := a.task
	if contains(t.holders, i) {
		return true, retryAt
	}
	src := s.upHolder(t)
	if src < 0 {
		return s.cfg.SourcePenalty >= 0, retryAt
	}
	if s.cfg.TransferQueueFactor < 0 {
		return true, retryAt
	}
	est, err := s.net.EarliestStart(now, src, i)
	if err != nil {
		panic(err)
	}
	allowance := s.cfg.TransferQueueFactor * s.net.TransferTime(s.cfg.BlockBytes)
	if est > now+allowance {
		return false, est - allowance
	}
	return true, retryAt
}

// refPickPredictive is the seed's pickPredictive.
func refPickPredictive(s *simulator, i int) (*attempt, float64) {
	now := s.eng.Now()
	wake := math.Inf(1)
	myEta := s.eta[i]
	var best *attempt
	bestP := 0.0
	for _, a := range s.running {
		t := a.task
		if t.state != taskRunning || t.hasDuplicate || t.activeAttempts != 1 {
			continue
		}
		lam := s.nodes[a.node].lambda
		if lam <= 0 {
			continue // dedicated or trace-driven executor: no parametric hazard
		}
		if s.eta[a.node] <= myEta {
			continue // backup host must be healthier than the executor
		}
		rem := a.plannedEnd - now
		if rem < 0 {
			rem = 0
		}
		p := -math.Expm1(-lam * rem)
		if p < predictiveHorizon || p <= bestP {
			continue
		}
		if ok, retryAt := refDuplicateReachable(s, a, i, now); !ok {
			if retryAt < wake {
				wake = retryAt
			}
			continue
		}
		best = a
		bestP = p
	}
	return best, wake
}

// refPickRedundant is the seed's pickRedundant.
func refPickRedundant(s *simulator, i int) (*attempt, float64) {
	now := s.eng.Now()
	wake := math.Inf(1)
	stagger := s.cfg.RedundancyOverlap * s.taskGamma
	var best *attempt
	for _, a := range s.running {
		t := a.task
		if t.state != taskRunning || t.activeAttempts >= s.cfg.RedundancyK {
			continue
		}
		gate := t.firstExec + float64(t.activeAttempts)*stagger
		if now < gate {
			if gate < wake {
				wake = gate
			}
			continue
		}
		if ok, retryAt := refDuplicateReachable(s, a, i, now); !ok {
			if retryAt < wake {
				wake = retryAt
			}
			continue
		}
		if best == nil ||
			t.activeAttempts < best.task.activeAttempts ||
			(t.activeAttempts == best.task.activeAttempts && t.id < best.task.id) {
			best = a
		}
	}
	return best, wake
}

// refTieWinner is the seed's equal-instant first-finisher scan in
// onAttemptComplete.
func refTieWinner(s *simulator, a *attempt, now float64) *attempt {
	t := a.task
	for _, a2 := range s.running {
		if a2.task == t && a2 != a && a2.plannedEnd == now && a2.node < a.node {
			a = a2
		}
	}
	return a
}

// refFirstRunning is the seed's sibling lookup in onAttemptComplete:
// the first attempt of t in the running list.
func refFirstRunning(s *simulator, t *task) *attempt {
	for _, a2 := range s.running {
		if a2.task == t {
			return a2
		}
	}
	return nil
}

// refSourceTasks is the seed's sourceTasks walk, less the callback:
// the unfinished tasks whose first holder is h, in h's local queue
// order. (The seed started past a prefix of finished entries; skipping
// them in the loop is the same walk.)
func refSourceTasks(s *simulator, h int) []int32 {
	var ids []int32
	for _, id := range s.nodes[h].localQueue {
		if t := &s.tasks[id]; t.holders[0] == h && t.state != taskDone {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// oracleStats counts how often the comparisons saw anything worth
// comparing, so a matrix that stopped exercising a decision shows.
type oracleStats struct {
	steps, steals, fruitlessRetry  int
	victims, wakes, ties, siblings int
	equalExpected, multiEntryTasks int
	fastWalks, fastPicks           int
	closedSources, idleHolders     int
	skippable, finishedSourced     int
}

// checkIndexes verifies the bookkeeping the indexed decisions rely on.
func checkIndexes(t *testing.T, s *simulator, where string) {
	t.Helper()
	// Closed sources: flagged, up, booked past the allowance or due to
	// reopen, and in heap order.
	now := s.eng.Now()
	for k, h := range s.closedSrc.nodes {
		if ns := &s.nodes[h]; !ns.closed || !ns.up {
			t.Fatalf("%s: closed source %d: closed=%v up=%v", where, h, ns.closed, ns.up)
		}
		if k > 0 && s.net.UplinkFree(s.closedSrc.nodes[(k-1)/2]) > s.net.UplinkFree(h) {
			t.Fatalf("%s: closed-source heap order broken at %d", where, k)
		}
	}
	closed := 0
	for h := range s.nodes {
		if s.nodes[h].closed {
			closed++
		}
	}
	if closed != len(s.closedSrc.nodes) {
		t.Fatalf("%s: %d nodes flagged closed, %d in the heap", where, closed, len(s.closedSrc.nodes))
	}
	// Entry chains: exactly the queued entries of each task; open bits:
	// exactly the entries of pending tasks not parked under a closed
	// source; parked entries and held-parked counts add up.
	parkedLive := make([]int, len(s.nodes))
	heldLive := make([]int, len(s.nodes))
	heldCand := make([]map[*attempt]bool, len(s.nodes))
	for h := range heldCand {
		heldCand[h] = map[*attempt]bool{}
	}
	onChain := make(map[int]int)
	for id := range s.tasks {
		tk := &s.tasks[id]
		for p := tk.qhead; p >= 0; p = s.pendLink[p] {
			if int(p) < s.pendHead || int(p) >= len(s.pending) || s.pending[p] != id {
				t.Fatalf("%s: task %d chains entry %d outside its queue entries", where, id, p)
			}
			onChain[int(p)]++
		}
		if src := s.closedBy(tk); src >= 0 {
			if tk.state == taskPending && tk.qhead >= 0 { // submitted
				for p := tk.qhead; p >= 0; p = s.pendLink[p] {
					parkedLive[src]++
				}
				for _, h := range tk.holders {
					heldLive[h]++
				}
			}
			for a := tk.attempts; a != nil; a = a.sibling {
				if a.parked {
					for _, h := range tk.holders {
						heldCand[h][a] = true
					}
				}
			}
		}
	}
	open, parked := 0, 0
	for p := s.pendHead; p < len(s.pending); p++ {
		if onChain[p] != 1 {
			t.Fatalf("%s: queue entry %d is on %d chains", where, p, onChain[p])
		}
		tk := &s.tasks[s.pending[p]]
		isOpen := s.open.next(p) == p
		if want := tk.state == taskPending && s.closedBy(tk) < 0; isOpen != want {
			t.Fatalf("%s: entry %d open bit %v, want %v", where, p, isOpen, want)
		}
		if isOpen {
			open++
		}
	}
	for h := range s.nodes {
		ns := &s.nodes[h]
		if ns.parkedLive != parkedLive[h] || ns.heldParkedLive != heldLive[h] || len(ns.heldParkedCand) != len(heldCand[h]) {
			t.Fatalf("%s: node %d parkedLive %d heldParkedLive %d heldParkedCand %d, counted %d, %d and %d", where, h,
				ns.parkedLive, ns.heldParkedLive, len(ns.heldParkedCand), parkedLive[h], heldLive[h], len(heldCand[h]))
		}
		for _, a := range ns.heldParkedCand {
			if !heldCand[h][a] {
				t.Fatalf("%s: node %d lists %s as a parked attempt it holds the block of", where, h, describe(a))
			}
		}
		parked += parkedLive[h]
	}
	if open != s.open.count || parked != s.parkedEntries || len(onChain) != len(s.pending)-s.pendHead {
		t.Fatalf("%s: open %d (counted %d), parked %d (counted %d), %d chained entries of %d", where,
			s.open.count, open, s.parkedEntries, parked, len(onChain), len(s.pending)-s.pendHead)
	}
	// Attempt chains and the speculation heap.
	for ri, a := range s.running {
		if a.runIdx != ri {
			t.Fatalf("%s: running[%d] has runIdx %d", where, ri, a.runIdx)
		}
		n, found := 0, false
		for b := a.task.attempts; b != nil; b = b.sibling {
			n++
			found = found || b == a
		}
		if !found || n != a.task.activeAttempts {
			t.Fatalf("%s: task %d chains %d attempts (found=%v), activeAttempts %d", where, a.task.id, n, found, a.task.activeAttempts)
		}
		var member, park bool
		switch s.cfg.Speculation {
		case SpeculationReactive:
			member = !a.task.hasDuplicate
			park = s.closedBy(a.task) >= 0
		case SpeculationPredictive:
			member = !a.task.hasDuplicate && s.nodes[a.node].lambda > 0
		case SpeculationRedundant:
			member = a.task.activeAttempts < s.cfg.RedundancyK
		}
		if (a.heapIdx >= 0) != (member && !park) || a.parked != (member && park) {
			t.Fatalf("%s: attempt of task %d on node %d: heapIdx %d parked %v, member %v park %v", where,
				a.task.id, a.node, a.heapIdx, a.parked, member, park)
		}
		if a.heapIdx >= 0 || a.parked {
			// The key must bound the score the policy computes now.
			var score float64
			switch s.cfg.Speculation {
			case SpeculationReactive:
				score = refExpected(s, a, now)
			case SpeculationPredictive:
				score = -math.Expm1(-s.nodes[a.node].lambda * math.Max(a.plannedEnd-now, 0))
			default:
				score = a.key
			}
			if a.key < score {
				t.Fatalf("%s: attempt of task %d on node %d: key %g below its score %g", where, a.task.id, a.node, a.key, score)
			}
		}
	}
	for hi, a := range s.cand.items {
		if a.heapIdx != hi || a.runIdx < 0 {
			t.Fatalf("%s: heap[%d] has heapIdx %d runIdx %d", where, hi, a.heapIdx, a.runIdx)
		}
		if hi > 0 && s.cand.items[(hi-1)/2].key < a.key {
			t.Fatalf("%s: heap order broken at %d: parent key %g < %g", where, hi, s.cand.items[(hi-1)/2].key, a.key)
		}
	}
}

// compareDecisions asks every indexed decision and its reference scan
// the same question for every node, in the simulator's current state.
func compareDecisions(t *testing.T, s *simulator, st *oracleStats, where string) {
	t.Helper()
	now := s.eng.Now()
	s.reopenDue(now) // as tryAssign does before it decides anything
	checkIndexes(t, s, where)
	// Source queues: less the finished tasks they still list, exactly
	// the walk they replace.
	for h := range s.nodes {
		var live []int32
		for _, id := range s.nodes[h].srcQueue {
			if s.tasks[id].state != taskDone {
				live = append(live, id)
			}
		}
		if len(live) < len(s.nodes[h].srcQueue) {
			st.finishedSourced++
		}
		if want := refSourceTasks(s, h); !slices.Equal(live, want) {
			t.Fatalf("%s: node %d source queue %v (unfinished), scan %v", where, h, live, want)
		}
	}
	st.closedSources += len(s.closedSrc.nodes)
	for i := range s.nodes {
		if ns := &s.nodes[i]; ns.heldParkedLive+len(ns.heldParkedCand) > 0 && ns.up && ns.running == nil {
			st.idleHolders++
		}
		wantIdx, wantOK, wantRetry := refFindStealable(s, i)
		walks := s.fruitless.stamp
		gotIdx, gotOK, gotRetry := s.findStealable(i)
		if s.open.count+s.parkedEntries > 0 && s.fruitless.stamp == walks {
			st.fastWalks++
		}
		switch {
		case gotOK != wantOK, gotOK && gotIdx != wantIdx:
			t.Fatalf("%s node %d: findStealable = (%d, %v), scan = (%d, %v)", where, i, gotIdx, gotOK, wantIdx, wantOK)
		// retryAt is consumed only when nothing was found.
		case !gotOK && math.Float64bits(gotRetry) != math.Float64bits(wantRetry):
			t.Fatalf("%s node %d: findStealable retryAt = %x, scan = %x", where, i, gotRetry, wantRetry)
		}
		if gotOK {
			st.steals++
			if s.pendLink[s.tasks[s.pending[gotIdx]].qhead] >= 0 {
				st.multiEntryTasks++
			}
		} else if !math.IsInf(gotRetry, 1) {
			st.fruitlessRetry++
		}

		var got, want *attempt
		var gotWake, wantWake float64
		switch s.cfg.Speculation {
		case SpeculationReactive:
			picks := s.fruitlessSpec.stamp
			got, want = s.pickSpeculative(i), refPickSpeculative(s, i)
			if s.fruitlessSpec.stamp == picks {
				st.fastPicks++
			}
			if want != nil {
				// An equal-expected rival later in the running list is
				// the tie the running-order rule decides.
				for _, b := range s.running[want.runIdx+1:] {
					if !b.task.hasDuplicate && refExpected(s, b, now) == refExpected(s, want, now) {
						st.equalExpected++
						break
					}
				}
			}
		case SpeculationPredictive:
			got, gotWake = s.pickPredictive(i)
			want, wantWake = refPickPredictive(s, i)
		case SpeculationRedundant:
			got, gotWake = s.pickRedundant(i)
			want, wantWake = refPickRedundant(s, i)
		default:
			continue
		}
		if got != want {
			t.Fatalf("%s node %d: pick = %s, scan = %s", where, i, describe(got), describe(want))
		}
		if got != nil {
			st.victims++
		} else if math.Float64bits(gotWake) != math.Float64bits(wantWake) {
			// wake is consumed only when there is no victim.
			t.Fatalf("%s node %d: pick wake = %x, scan = %x", where, i, gotWake, wantWake)
		} else if !math.IsInf(gotWake, 1) {
			st.wakes++
		}
	}
	// A sweep skips the parked nodes whose mustOffer bit is clear while
	// offersFutile holds: they must be the plain nodes kickIdle
	// describes, and the scans must find nothing for them.
	futile := s.offersFutile(s.idleMinDupCost)
	for _, i := range s.idle {
		ns := &s.nodes[i]
		if s.mustOffer[i>>6]&(1<<uint(i&63)) != 0 {
			continue
		}
		unarmed := s.unarmed[i>>6]&(1<<uint(i&63)) != 0
		if !ns.inIdle || !ns.up || ns.running != nil || ns.localHead != len(ns.localQueue) ||
			ns.retry.Active() == unarmed || ns.heldParkedLive != 0 {
			t.Fatalf("%s: node %d is skippable (unarmed %v) but not plain: %+v", where, i, unarmed, *ns)
		}
		if dupCost := s.transfer + s.eta[i]; dupCost < s.idleMinDupCost {
			t.Fatalf("%s: node %d dupCost %g below idleMinDupCost %g", where, i, dupCost, s.idleMinDupCost)
		}
		if !futile {
			continue
		}
		if unarmed && s.parkedEntries != 0 {
			continue
		}
		st.skippable++
		if _, ok, retryAt := refFindStealable(s, i); ok || (unarmed && !math.IsInf(retryAt, 1)) {
			t.Fatalf("%s: a sweep would skip node %d, the scan finds it a task (%v) or a retry instant (%g)", where, i, ok, retryAt)
		}
		if s.cfg.Speculation == SpeculationReactive && refPickSpeculative(s, i) != nil {
			t.Fatalf("%s: a sweep would skip node %d, the scan finds it a victim", where, i)
		}
	}
	for _, a := range s.running {
		want := refTieWinner(s, a, a.plannedEnd)
		if got := tieWinner(a, a.plannedEnd); got != want {
			t.Fatalf("%s: tieWinner(%s) = %s, scan = %s", where, describe(a), describe(got), describe(want))
		}
		if want != a {
			st.ties++
		}
		if a.task.activeAttempts > 1 {
			st.siblings++
		}
		if got, want := firstRunning(a.task), refFirstRunning(s, a.task); got != want {
			t.Fatalf("%s: firstRunning(task %d) = %s, scan = %s", where, a.task.id, describe(got), describe(want))
		}
	}
}

func refExpected(s *simulator, a *attempt, now float64) float64 {
	rem := a.plannedEnd - now
	if rem < 0 {
		rem = 0
	}
	return s.cfg.Cluster.Node(cluster.NodeID(a.node)).Availability.ExpectedTaskTime(rem)
}

func describe(a *attempt) string {
	if a == nil {
		return "none"
	}
	return fmt.Sprintf("task %d on node %d (running[%d])", a.task.id, a.node, a.runIdx)
}

// TestIndexedDecisionsMatchScans is the stepping test.
func TestIndexedDecisionsMatchScans(t *testing.T) {
	var total oracleStats
	for _, c := range matrixCells() {
		c := c
		var st oracleStats
		var s *simulator
		var err error
		if c.jobs > 0 {
			mj, g := c.multi(t, true)
			if s, err = newMultiJobSimulator(mj, g); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			s.startMulti()
		} else {
			cfg, g := c.single(t, true)
			cfg = cfg.withDefaults()
			if err = cfg.validate(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if s, err = newSimulator(cfg, g); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			s.start()
		}
		compareDecisions(t, s, &st, c.name+" at start")
		for s.remaining > 0 {
			ok, err := s.eng.Step()
			if err != nil || !ok || s.err != nil {
				t.Fatalf("%s: step %d: ok=%v err=%v sim err=%v", c.name, st.steps, ok, err, s.err)
			}
			st.steps++
			compareDecisions(t, s, &st, fmt.Sprintf("%s after step %d (t=%g)", c.name, st.steps, s.eng.Now()))
		}
		total.steps += st.steps
		total.steals += st.steals
		total.fruitlessRetry += st.fruitlessRetry
		total.victims += st.victims
		total.wakes += st.wakes
		total.ties += st.ties
		total.siblings += st.siblings
		total.equalExpected += st.equalExpected
		total.multiEntryTasks += st.multiEntryTasks
		total.fastWalks += st.fastWalks
		total.fastPicks += st.fastPicks
		total.closedSources += st.closedSources
		total.idleHolders += st.idleHolders
		total.skippable += st.skippable
		total.finishedSourced += st.finishedSourced
	}
	t.Logf("%+v", total)
	for name, n := range map[string]int{
		"steals": total.steals, "fruitless walks with a retry instant": total.fruitlessRetry,
		"speculation victims": total.victims, "speculation wakes": total.wakes,
		"first-finisher ties": total.ties, "sibling lookups": total.siblings,
		"equal-expected ties": total.equalExpected, "steals of a task with several entries": total.multiEntryTasks,
		"walks answered from the fruitless summary": total.fastWalks,
		"picks answered from the fruitless summary": total.fastPicks,
		"closed sources": total.closedSources, "idle holders of a parked block": total.idleHolders,
		"parked nodes a sweep would skip":       total.skippable,
		"source queues listing a finished task": total.finishedSourced,
	} {
		if n == 0 {
			t.Errorf("the matrix never produced any %s", name)
		}
	}
}
