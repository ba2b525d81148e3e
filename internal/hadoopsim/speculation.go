package hadoopsim

import (
	"fmt"
	"math"
)

// SpeculationPolicy selects the duplicate-execution strategy of the
// simulated JobTracker: when (if ever) a second attempt of a running
// task is launched on an idle node, and how many attempts a task may
// hold at once. All policies share first-finisher-wins cancellation:
// the moment one attempt completes, every sibling is cancelled and
// its spent execution time is accounted as wasted work.
type SpeculationPolicy int

const (
	// SpeculationReactive is stock Hadoop's LATE-style straggler
	// mitigation (the legacy default): an idle node duplicates the
	// running attempt with the worst model-expected remaining time,
	// but only after that expectation exceeds the cost of redoing the
	// task from scratch — it reacts once a task already straggles.
	SpeculationReactive SpeculationPolicy = iota + 1
	// SpeculationNone launches no duplicates.
	SpeculationNone
	// SpeculationPredictive launches a backup *before* the executor's
	// expected interruption horizon: an idle, healthier node (lower
	// E[T]) duplicates a running attempt whose executor is likely —
	// probability at least predictiveHorizon under the exponential
	// interruption model — to be interrupted before the attempt
	// finishes. This is the ATLAS-style failure-aware move: don't wait
	// for the straggle, pre-empt it.
	SpeculationPredictive
	// SpeculationRedundant assigns every task up to RedundancyK
	// attempts, staggered by RedundancyOverlap of one task length
	// between consecutive launches (zero overlap launches all K as
	// soon as nodes are free). First finisher wins; the rest are
	// cancelled and counted as wasted work.
	SpeculationRedundant
)

// Speculation policy defaults.
const (
	// DefaultRedundancyK is the redundant-policy attempt budget.
	DefaultRedundancyK = 2
	// DefaultRedundancyOverlap staggers redundant launches by a
	// quarter task length, trading a little completion time for much
	// less duplicated work.
	DefaultRedundancyOverlap = 0.25
	// predictiveHorizon is SpeculationPredictive's threshold: it
	// duplicates once interruption-before-completion is at least an
	// even bet.
	predictiveHorizon = 0.5
)

func (p SpeculationPolicy) String() string {
	switch p {
	case SpeculationReactive:
		return "reactive"
	case SpeculationNone:
		return "none"
	case SpeculationPredictive:
		return "predictive"
	case SpeculationRedundant:
		return "redundant"
	default:
		return fmt.Sprintf("SpeculationPolicy(%d)", int(p))
	}
}

// ParseSpeculationPolicy maps the CLI spelling to a policy.
func ParseSpeculationPolicy(s string) (SpeculationPolicy, error) {
	switch s {
	case "reactive":
		return SpeculationReactive, nil
	case "none", "off":
		return SpeculationNone, nil
	case "predictive":
		return SpeculationPredictive, nil
	case "redundant":
		return SpeculationRedundant, nil
	default:
		return 0, fmt.Errorf("hadoopsim: unknown speculation policy %q (want reactive, none, predictive, or redundant)", s)
	}
}

// candidateKey returns the speculation-index key a freshly started
// attempt enters with: an upper bound on every score the policy will
// ever compute for it (the redundant policy's key is exact and set
// when the attempt is filed).
func (s *simulator) candidateKey(a *attempt, now float64) float64 {
	ns := &s.nodes[a.node]
	switch s.cfg.Speculation {
	case SpeculationReactive:
		// E[T] is increasing in the task length and the remaining
		// time only shrinks, so E[T] over the attempt's full span
		// bounds its expected remaining time at any instant.
		return ns.avail.ExpectedTaskTime(a.plannedEnd - now)
	case SpeculationPredictive:
		return -math.Expm1(-ns.lambda * (a.plannedEnd - now))
	}
	return 0
}

// fileAttempts enters the attempts of running task t into the
// speculation index, per the active policy's membership rule (see
// candHeap). Under the reactive policy the attempts of a task whose
// source is closed are parked instead: no node but a holder of the
// block can duplicate them until the source reopens. (The other two
// policies owe their caller the instant an unreachable candidate is
// worth another look, which takes looking at each.) unfileAttempts is
// the inverse; every change to the task's attempts, its duplicate
// flag or its source's regime is bracketed by the pair.
func (s *simulator) fileAttempts(t *task) {
	var key float64
	switch s.cfg.Speculation {
	case SpeculationReactive, SpeculationPredictive:
		// hasDuplicate is never cleared: once set, the task's attempts
		// are out of the running for good.
		if t.hasDuplicate {
			return
		}
	case SpeculationRedundant:
		// Fewer attempts, then the lower task id, ranks higher.
		if t.activeAttempts >= s.cfg.RedundancyK {
			return
		}
		key = -(float64(t.activeAttempts)*float64(len(s.tasks)) + float64(t.id))
	default:
		return
	}
	parked := s.cfg.Speculation == SpeculationReactive && s.closedBy(t) >= 0
	for b := t.attempts; b != nil; b = b.sibling {
		switch {
		case parked:
			b.parked = true
			for _, h := range t.holders {
				s.nodes[h].heldParkedCand = append(s.nodes[h].heldParkedCand, b)
				s.offerNext(h)
			}
		case s.cfg.Speculation == SpeculationRedundant:
			s.cand.push(b, key)
		case s.cfg.Speculation == SpeculationPredictive && s.nodes[b.node].lambda <= 0:
			// Dedicated and trace-driven executors have no parametric
			// hazard and are never backed up.
		default:
			s.cand.push(b, b.key)
		}
	}
}

func (s *simulator) unfileAttempts(t *task) {
	for b := t.attempts; b != nil; b = b.sibling {
		if b.parked {
			b.parked = false
			for _, h := range t.holders {
				held := s.nodes[h].heldParkedCand
				for k := range held {
					if held[k] == b {
						held[k] = held[len(held)-1]
						held[len(held)-1] = nil
						s.nodes[h].heldParkedCand = held[:len(held)-1]
						break
					}
				}
			}
		} else {
			s.cand.remove(b)
		}
	}
}

// pickSpeculative returns the running attempt most worth duplicating
// on node i, per a LATE-style longest-expected-time-to-end rule using
// the availability model, or nil: the never-duplicated attempt with
// the largest model-expected remaining time, provided that exceeds
// what node i needs to redo the task from scratch (worst case:
// migration plus a full model-expected execution) and node i can
// fetch the block now.
func (s *simulator) pickSpeculative(i int) *attempt {
	now := s.eng.Now()
	ns := &s.nodes[i]
	dupCost := s.transfer + s.eta[i]
	expected := func(a *attempt) float64 {
		rem := a.plannedEnd - now
		if rem < 0 {
			rem = 0
		}
		// Expected wall time for the in-flight attempt to finish,
		// accounting for the executor's volatility.
		return s.nodes[a.node].avail.ExpectedTaskTime(rem)
	}
	var best *attempt
	bestScore := dupCost
	if !s.indexFruitless(i, now, dupCost) {
		fp := &s.fruitlessSpec
		fp.epoch = 0
		fp.stamp++
		fp.floor = dupCost
		fp.minUp = math.Inf(1)
		best, bestScore = s.cand.pick(dupCost, expected,
			func(a *attempt) bool {
				t := a.task
				for _, h := range t.holders {
					s.holdsCand[h] = fp.stamp
				}
				if src := s.upHolder(t); src >= 0 {
					fp.minUp = math.Min(fp.minUp, s.net.UplinkFree(src))
				}
				ok, _ := s.duplicateReachable(a, i, now)
				return ok
			})
		if best == nil && s.err == nil {
			fp.epoch = s.epoch
		}
	}
	// Parked attempts whose block node i holds need no fetch.
	for _, a := range ns.heldParkedCand {
		if a.key < bestScore {
			continue
		}
		sc := expected(a)
		if sc < a.key {
			a.key = sc // still an upper bound when the source reopens
		}
		if beats(a, sc, best, bestScore) {
			best, bestScore = a, sc
		}
	}
	return best
}

// indexFruitless reports, in O(1), that no member of the speculation
// index is a victim for node i at floor dupCost: none scores above it,
// or the last fruitless pick already covered this case.
func (s *simulator) indexFruitless(i int, now, dupCost float64) bool {
	if len(s.cand.items) == 0 || s.cand.items[0].key <= dupCost {
		return true
	}
	fp := &s.fruitlessSpec
	if fp.epoch != s.epoch || dupCost < fp.floor || s.holdsCand[i] == fp.stamp {
		return false
	}
	// Scores only fall, so every member worth more than dupCost now
	// was worth more than fp.floor then: node i holds none of their
	// blocks, and fetching one cannot start before the freest of their
	// sources' uplinks and i's own downlink allow.
	return s.fetchStart(i, now, fp.minUp) > now+s.queueAllowance
}

// fruitlessPick is what a pickSpeculative that found no victim learned
// about the attempts scoring above its floor, thief-independent: none
// of them has a task re-ingestible from the source (that would have
// been a victim), so a node holding none of their blocks (stamp, in
// simulator.holdsCand) must fetch from one of their sources.
type fruitlessPick struct {
	epoch uint64 // simulator.epoch the pick ran in
	floor float64
	stamp uint64
	// minUp is the smallest uplink cursor over the first up holders
	// of those attempts' tasks (+Inf when none has one).
	minUp float64
}

// pickPredictive returns the running attempt most worth backing up on
// idle node i under the predictive policy: the executor's probability
// of interruption before the attempt completes, 1-exp(-λ·remaining),
// is at least the configured horizon, and node i is strictly
// healthier (lower E[T]) than the executor. Among qualifying
// candidates the highest interruption probability wins. The second
// return, meaningful when there is no victim, is the earliest instant
// worth re-scanning (a congested fetch path freeing up), +Inf when
// there is nothing to wait for.
func (s *simulator) pickPredictive(i int) (*attempt, float64) {
	now := s.eng.Now()
	wake := math.Inf(1)
	myEta := s.eta[i]
	// p >= horizon, as a strict floor.
	floor := math.Nextafter(predictiveHorizon, math.Inf(-1))
	best, _ := s.cand.pick(floor,
		func(a *attempt) float64 {
			rem := a.plannedEnd - now
			if rem < 0 {
				rem = 0
			}
			return -math.Expm1(-s.nodes[a.node].lambda * rem)
		},
		func(a *attempt) bool {
			if s.eta[a.node] <= myEta {
				return false // backup host must be healthier than the executor
			}
			ok, retryAt := s.duplicateReachable(a, i, now)
			if !ok && retryAt < wake {
				wake = retryAt
			}
			return ok
		})
	return best, wake
}

// pickRedundant returns the running task to which idle node i should
// add a redundant attempt: fewest active attempts first (then lowest
// task id), subject to the attempt budget RedundancyK and the overlap
// stagger — attempt j may launch only once (j-1)·overlap·γ has
// elapsed since the task's first attempt began executing. The second
// return, meaningful when there is no victim, is the earliest instant
// a currently-gated or congested candidate becomes launchable, +Inf
// when none.
func (s *simulator) pickRedundant(i int) (*attempt, float64) {
	now := s.eng.Now()
	wake := math.Inf(1)
	stagger := s.cfg.RedundancyOverlap * s.taskGamma
	best, _ := s.cand.pick(math.Inf(-1),
		func(a *attempt) float64 { return a.key },
		func(a *attempt) bool {
			t := a.task
			if gate := t.firstExec + float64(t.activeAttempts)*stagger; now < gate {
				if gate < wake {
					wake = gate
				}
				return false
			}
			ok, retryAt := s.duplicateReachable(a, i, now)
			if !ok && retryAt < wake {
				wake = retryAt
			}
			return ok
		})
	return best, wake
}

// duplicateReachable reports whether node i could fetch the block of
// a's task right now: a live holder within the transfer-queue
// allowance, a local replica, or a permitted source re-ingest. When
// the only obstacle is NIC congestion, retryAt is the instant the
// earliest fetch path frees; otherwise it is +Inf (recovery events
// re-kick idle nodes, so there is no instant worth polling for).
func (s *simulator) duplicateReachable(a *attempt, i int, now float64) (ok bool, retryAt float64) {
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
		s.err = err
		return false, retryAt
	}
	if est > now+s.queueAllowance {
		return false, est - s.queueAllowance
	}
	return true, retryAt
}

// armSpecRetry schedules a speculation re-scan for node i at wake,
// folding in the node's exponential backoff when the policy could not
// place a duplicate this round. The pending timer is reused: the
// earliest scheduled wakeup wins.
func (s *simulator) armSpecRetry(i int, wake float64) {
	if math.IsInf(wake, 1) || s.err != nil {
		return
	}
	ns := &s.nodes[i]
	if ns.specRetry.Active() {
		return
	}
	s.arm(&ns.specRetry, wake, (*specRetryFire)(ns))
}

// specBackoffDelay returns node i's current speculation retry delay
// and doubles it for the next failure, capped at eight times the
// configured base. A successful attempt start resets the backoff. A
// non-positive configured backoff disables retry polling entirely
// (the node then waits for the next scheduling event).
func (s *simulator) specBackoffDelay(i int) float64 {
	if s.cfg.SpeculationBackoff <= 0 {
		return math.Inf(1)
	}
	ns := &s.nodes[i]
	if ns.specBackoff <= 0 {
		ns.specBackoff = s.cfg.SpeculationBackoff
	} else {
		ns.specBackoff *= 2
		if hi := 8 * s.cfg.SpeculationBackoff; ns.specBackoff > hi {
			ns.specBackoff = hi
		}
	}
	return ns.specBackoff
}
