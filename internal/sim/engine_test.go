package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	mustAt(t, e, 3, func() { order = append(order, 3) })
	mustAt(t, e, 1, func() { order = append(order, 1) })
	mustAt(t, e, 2, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %g", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustAt(t, e, 5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []float64
	mustAt(t, e, 1, func() {
		hits = append(hits, e.Now())
		if _, err := e.After(2, func() { hits = append(hits, e.Now()) }); err != nil {
			t.Errorf("nested After: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineScheduleAtNow(t *testing.T) {
	e := NewEngine()
	ran := false
	mustAt(t, e, 2, func() {
		if _, err := e.At(e.Now(), func() { ran = true }); err != nil {
			t.Errorf("At(now): %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event at current time did not run")
	}
}

func TestEnginePastEventRejected(t *testing.T) {
	e := NewEngine()
	mustAt(t, e, 5, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(1, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.After(-1, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineRejectsBadArgs(t *testing.T) {
	e := NewEngine()
	if _, err := e.At(1, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	inf := 1.0
	for _, bad := range []float64{inf / 0, -inf / 0} {
		if _, err := e.At(bad, func() {}); err == nil {
			t.Fatal("non-finite time accepted")
		}
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	timer := mustAt(t, e, 1, func() { ran = true })
	if !timer.Active() {
		t.Fatal("timer should be active")
	}
	timer.Cancel()
	if timer.Active() {
		t.Fatal("timer should be inactive after cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double cancel and nil-safe cancel are no-ops.
	timer.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel()
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 10
	var tick func()
	tick = func() {
		if _, err := e.After(1, tick); err != nil {
			t.Errorf("schedule: %v", err)
		}
	}
	mustAt(t, e, 0, tick)
	if err := e.Run(); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	t1 := mustAt(t, e, 1, func() {})
	mustAt(t, e, 2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	t1.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("pending after cancel = %d", e.Pending())
	}
}

// Property: for arbitrary event times, execution order is
// non-decreasing in time and the clock never goes backward.
func TestEngineMonotoneClockProperty(t *testing.T) {
	err := quick.Check(func(times []uint16) bool {
		e := NewEngine()
		var seen []float64
		for _, raw := range times {
			at := float64(raw)
			if _, err := e.At(at, func() { seen = append(seen, e.Now()) }); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		prev := -1.0
		for _, v := range seen {
			if v < prev {
				return false
			}
			prev = v
		}
		return len(seen) == len(times)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func mustAt(t *testing.T, e *Engine, at float64, fn func()) *Timer {
	t.Helper()
	timer, err := e.At(at, fn)
	if err != nil {
		t.Fatal(err)
	}
	return timer
}

func TestProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		mustAt(t, e, float64(i), func() {})
	}
	cancelled := mustAt(t, e, 10, func() {})
	cancelled.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Processed(); got != 5 {
		t.Fatalf("processed = %d, want 5 (cancelled events don't count)", got)
	}
}

func TestPublicStep(t *testing.T) {
	e := NewEngine()
	ran := false
	mustAt(t, e, 1, func() { ran = true })
	ok, err := e.Step()
	if err != nil || !ok || !ran {
		t.Fatalf("step: ok=%v err=%v ran=%v", ok, err, ran)
	}
	ok, err = e.Step()
	if err != nil || ok {
		t.Fatalf("empty step: ok=%v err=%v", ok, err)
	}
}

// What reusing heap slots could break: a handle kept after its event
// was cancelled and dropped must stay dead, and must not reach the
// event that now occupies the slot.
func TestStaleTimerCannotTouchSlotReuse(t *testing.T) {
	e := NewEngine()
	stale := mustAt(t, e, 1, func() { t.Error("cancelled event ran") })
	stale.Cancel()
	// Cancel emptied the event's slot; nothing is left to run.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.events) != 0 {
		t.Fatalf("cancelled event still queued: %d", len(e.events))
	}
	ran := false
	fresh := mustAt(t, e, 3, func() { ran = true }) // takes over slot 0
	if stale.Active() {
		t.Fatal("stale timer reports active after its slot was reused")
	}
	stale.Cancel()
	if !fresh.Active() || e.Pending() != 1 {
		t.Fatalf("stale Cancel reached the new event: active=%v pending=%d", fresh.Active(), e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("the event in the reused slot did not run")
	}
	// The same after firing: the handle of a fired event is dead too.
	if fresh.Active() {
		t.Fatal("fired timer reports active")
	}
	again := mustAt(t, e, 4, func() {})
	fresh.Cancel()
	if !again.Active() || e.Pending() != 1 {
		t.Fatal("Cancel on a fired timer reached a later event")
	}
}

// Equal-time events keep FIFO order when cancellations and slot reuse
// are interleaved with scheduling.
func TestFIFOTieBreakSurvivesCancelAndReuse(t *testing.T) {
	e := NewEngine()
	var order []int
	var doomed []*Timer
	next := 0
	for round := 0; round < 4; round++ {
		for k := 0; k < 5; k++ {
			id := next
			next++
			mustAt(t, e, 7, func() { order = append(order, id) })
			doomed = append(doomed, mustAt(t, e, 7, func() { t.Error("cancelled event ran") }))
		}
		for _, d := range doomed {
			d.Cancel()
		}
		doomed = doomed[:0]
		// An earlier event fires in between, so the heap shrinks and
		// regrows around the equal-time block.
		mustAt(t, e, float64(round), func() {})
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != next {
		t.Fatalf("ran %d of %d events", len(order), next)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

// Pending is a maintained counter: it follows scheduling, cancelling
// (once per timer) and firing.
func TestPendingIsMaintained(t *testing.T) {
	e := NewEngine()
	timers := make([]*Timer, 6)
	for i := range timers {
		timers[i] = mustAt(t, e, float64(i+1), func() {})
	}
	timers[0].Cancel()
	timers[0].Cancel()
	timers[3].Cancel()
	if e.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", e.Pending())
	}
	if _, err := e.Step(); err != nil { // fires timer 1
		t.Fatal(err)
	}
	if e.Pending() != 3 {
		t.Fatalf("pending after one step = %d, want 3", e.Pending())
	}
	timers[1].Cancel() // already fired
	if e.Pending() != 3 {
		t.Fatalf("cancelling a fired timer changed pending to %d", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 || e.Processed() != 4 {
		t.Fatalf("pending = %d processed = %d, want 0 and 4", e.Pending(), e.Processed())
	}
}

// recorder is a caller-owned handler: it notes the instants it fires at.
type recorder struct {
	e    *Engine
	hits []float64
}

func (r *recorder) Fire() { r.hits = append(r.hits, r.e.Now()) }

func mustArm(t *testing.T, e *Engine, tm *Timer, at float64, h Handler) {
	t.Helper()
	if err := e.Arm(tm, at, h); err != nil {
		t.Fatal(err)
	}
}

func sameHits(got []float64, want ...float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// A timer re-armed while pending fires once, at the time of its last
// arming, whether that is later or earlier than the ones it replaced.
func TestRearmedTimerFiresOnceAtLastTime(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	var tm Timer
	if tm.Active() {
		t.Fatal("the zero Timer reports pending")
	}
	mustArm(t, e, &tm, 5, r)
	mustArm(t, e, &tm, 2, r)
	mustArm(t, e, &tm, 7, r)
	if !tm.Active() || e.Pending() != 1 {
		t.Fatalf("active=%v pending=%d, want true and 1", tm.Active(), e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sameHits(r.hits, 7) || e.Processed() != 1 || e.Pending() != 0 || tm.Active() {
		t.Fatalf("hits=%v processed=%d pending=%d active=%v", r.hits, e.Processed(), e.Pending(), tm.Active())
	}
}

// Pending follows cancel-then-arm and arm-while-pending: each timer
// counts once however often it is armed.
func TestArmKeepsPendingRight(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	var a, b Timer
	mustArm(t, e, &a, 1, r)
	mustArm(t, e, &b, 2, r)
	a.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", e.Pending())
	}
	mustArm(t, e, &a, 3, r) // cancel, then arm
	if !a.Active() || e.Pending() != 2 {
		t.Fatalf("cancel-then-arm: active=%v pending=%d", a.Active(), e.Pending())
	}
	mustArm(t, e, &b, 4, r) // arm while pending
	if !b.Active() || e.Pending() != 2 {
		t.Fatalf("arm while pending: active=%v pending=%d", b.Active(), e.Pending())
	}
	a.Cancel()
	a.Cancel()
	mustArm(t, e, &a, 5, r)
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sameHits(r.hits, 4, 5) || e.Pending() != 0 || e.Processed() != 2 {
		t.Fatalf("hits=%v pending=%d processed=%d", r.hits, e.Pending(), e.Processed())
	}
}

// tagged records, in firing order, the tag of each firing.
type tagged struct {
	tag   int
	fired *[]int
}

func (h tagged) Fire() { *h.fired = append(*h.fired, h.tag) }

// Reset idles every pending timer and returns the engine to its
// starting state with the heap's array kept, so a reset engine replays
// a schedule exactly as a fresh one does, FIFO ties included.
func TestResetKeepsCapacityAndReplays(t *testing.T) {
	schedule := func(e *Engine, tms []Timer, fired *[]int) {
		for i := range tms {
			mustArm(t, e, &tms[i], float64(len(tms)-i), tagged{i, fired})
		}
		mustArm(t, e, &tms[0], 2, tagged{0, fired}) // ties with the one armed second to last
	}
	e := NewEngine()
	e.Limit = 100
	tms := make([]Timer, 8)
	var fired []int
	schedule(e, tms, &fired)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	c := cap(e.events)
	e.Reset()
	if e.Pending() != 0 || e.Processed() != 0 || e.Now() != 0 || e.Limit != 0 || cap(e.events) != c {
		t.Fatalf("after Reset: pending=%d processed=%d now=%g limit=%d cap=%d, want 0 0 0 0 %d",
			e.Pending(), e.Processed(), e.Now(), e.Limit, cap(e.events), c)
	}
	for i := range tms {
		if tms[i].Active() {
			t.Fatalf("timer %d still pending after Reset", i)
		}
	}
	fired = nil
	schedule(e, tms, &fired)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine()
	var want []int
	schedule(fresh, make([]Timer, 8), &want)
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fired, want) || e.Processed() != fresh.Processed() {
		t.Fatalf("reset engine fired %v (%d events), fresh %v (%d)", fired, e.Processed(), want, fresh.Processed())
	}
}

// A rejected arming leaves the timer as it was.
func TestArmRejectsBadArgs(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	var tm Timer
	mustArm(t, e, &tm, 4, r)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	inf := 1.0
	for _, bad := range []float64{inf / 0, 0 * (inf / 0), 3} {
		if err := e.Arm(&tm, bad, r); err == nil {
			t.Fatalf("Arm at %g accepted at now=%g", bad, e.Now())
		}
	}
	if err := e.Arm(&tm, 5, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if tm.Active() || e.Pending() != 0 {
		t.Fatalf("a rejected arming changed the timer: active=%v pending=%d", tm.Active(), e.Pending())
	}
}

// ticker re-arms its own timer from inside Fire until left runs out.
type ticker struct {
	recorder
	tm   Timer
	left int
}

func (k *ticker) Fire() {
	k.recorder.Fire()
	if k.left > 0 {
		k.left--
		if err := k.e.Arm(&k.tm, k.e.Now()+1, k); err != nil {
			panic(err)
		}
	}
}

func TestRearmFromInsideFire(t *testing.T) {
	e := NewEngine()
	k := &ticker{recorder: recorder{e: e}, left: 3}
	mustArm(t, e, &k.tm, 1, k)
	for step := 1; ; step++ {
		ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// The first three firings re-arm; the fourth leaves it idle.
		rearmed := step < 4
		if k.tm.Active() != rearmed || (e.Pending() == 1) != rearmed {
			t.Fatalf("after step %d: active=%v pending=%d", step, k.tm.Active(), e.Pending())
		}
	}
	if !sameHits(k.hits, 1, 2, 3, 4) {
		t.Fatalf("hits = %v, want [1 2 3 4]", k.hits)
	}
}

// An earlier arming never fires into the cell, whether the cell was
// re-armed to an earlier instant, fired and was armed again, or took
// over the emptied heap slot of a cancelled arming.
func TestStaleEventNeverFiresIntoRearmedCell(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	var tm Timer
	mustArm(t, e, &tm, 1, r)
	tm.Cancel()
	// Cancel emptied the slot; run the empty queue, then reuse it.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.events) != 0 {
		t.Fatalf("cancelled event still queued: %d", len(e.events))
	}
	mustArm(t, e, &tm, 10, r) // takes over slot 0
	mustArm(t, e, &tm, 5, r)  // the event at 10 moves to 5
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	mustArm(t, e, &tm, 12, r) // fired, re-armed past the earlier arming
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sameHits(r.hits, 5, 12) || e.Processed() != 2 || e.Pending() != 0 {
		t.Fatalf("hits=%v processed=%d pending=%d, want [5 12], 2, 0", r.hits, e.Processed(), e.Pending())
	}
}

// Scheduling through a caller-owned timer allocates nothing.
func TestArmStepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	r := &recorder{e: e}
	var tm Timer
	step := func() {
		if err := e.Arm(&tm, e.Now()+1, r); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		r.hits = r.hits[:0]
	}
	step() // grow the heap array and the recorder once
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Arm+Step allocates %g times per event, want 0", allocs)
	}
}

// BenchmarkEngineHold is the classic hold model: a fixed number of
// pending timers, every firing re-arms one, so an iteration is one pop
// and one push at that depth.
func BenchmarkEngineHold(b *testing.B) {
	for _, pending := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			x := uint64(1)
			delay := func() float64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return float64(x>>11) / (1 << 53)
			}
			var fire func()
			fire = func() {
				if _, err := e.After(1+delay(), fire); err != nil {
					b.Error(err)
				}
			}
			for i := 0; i < pending; i++ {
				if _, err := e.After(delay(), fire); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// modelTimer is one timer of TestEngineMatchesNaiveModel with the
// reference's view of it: pending, and if so when and in which arming.
type modelTimer struct {
	m       *engineModel
	id      int
	tm      Timer
	pending bool
	time    float64
	seq     uint64
}

// engineModel is the naive reference: every pending firing is a
// (time, seq) pair, and the next to fire is the smallest.
type engineModel struct {
	t      *testing.T
	e      *Engine
	timers []*modelTimer
	seq    uint64 // the seq the next arming gets
	x      uint64 // xorshift state
	fired  []int
}

func (m *engineModel) rand(n int) int {
	m.x ^= m.x << 13
	m.x ^= m.x >> 7
	m.x ^= m.x << 17
	return int(m.x>>33) % n
}

// arm arms timer k at at through the engine and records it in the
// reference.
func (m *engineModel) arm(k int, at float64) {
	mt := m.timers[k]
	if err := m.e.Arm(&mt.tm, at, mt); err != nil {
		m.t.Fatal(err)
	}
	mt.pending, mt.time, mt.seq = true, at, m.seq
	m.seq++
}

// next returns the timer the reference says fires next, or nil.
func (m *engineModel) next() *modelTimer {
	var best *modelTimer
	for _, mt := range m.timers {
		if mt.pending && (best == nil || mt.time < best.time || (mt.time == best.time && mt.seq < best.seq)) {
			best = mt
		}
	}
	return best
}

// later returns an instant at or after now; small integers make
// equal-time firings, and so the seq tie-break, common.
func (m *engineModel) later() float64 { return m.e.Now() + float64(m.rand(4)) }

func (mt *modelTimer) Fire() {
	m := mt.m
	if want := m.next(); want != mt {
		m.t.Fatalf("timer %d fired, the reference fires %v", mt.id, want)
	}
	mt.pending = false
	m.fired = append(m.fired, mt.id)
	// Re-arm from inside Fire: this timer or another, pending or not.
	if m.rand(3) == 0 {
		m.arm(m.rand(len(m.timers)), m.later())
	}
}

// check asserts Pending, the heap order and that every timer's slot
// points at its own event: a pending timer owns exactly one event and
// an idle one none, so no stale event can exist.
func (m *engineModel) check(op string) {
	m.t.Helper()
	pending := 0
	for _, mt := range m.timers {
		if mt.pending {
			pending++
			if s := mt.tm.slot; s == 0 || s > len(m.e.events) || m.e.events[s-1].timer != &mt.tm {
				m.t.Fatalf("after %s: pending timer %d has slot %d", op, mt.id, s)
			}
			if ev := m.e.events[mt.tm.slot-1]; ev.time != mt.time || ev.seq != mt.seq {
				m.t.Fatalf("after %s: timer %d's event is (%g, %d), the reference (%g, %d)", op, mt.id, ev.time, ev.seq, mt.time, mt.seq)
			}
		} else if mt.tm.slot != 0 || mt.tm.Active() {
			m.t.Fatalf("after %s: idle timer %d has slot %d", op, mt.id, mt.tm.slot)
		}
	}
	if m.e.Pending() != pending || len(m.e.events) != pending {
		m.t.Fatalf("after %s: Pending %d, heap %d, reference %d", op, m.e.Pending(), len(m.e.events), pending)
	}
	for i := 1; i < len(m.e.events); i++ {
		if m.e.events[i].before(&m.e.events[(i-1)/2]) {
			m.t.Fatalf("after %s: heap order broken at %d", op, i)
		}
	}
}

// TestEngineMatchesNaiveModel drives seeded random sequences of arming
// (new, re-armed earlier or later, re-armed from inside Fire),
// cancelling and stepping over 64 timers, and checks every firing
// against the naive min-(time, seq) reference.
func TestEngineMatchesNaiveModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		m := &engineModel{t: t, e: NewEngine(), x: seed * 0x9E3779B97F4A7C15}
		for k := 0; k < 64; k++ {
			m.timers = append(m.timers, &modelTimer{m: m, id: k})
		}
		for op := 0; op < 5000; op++ {
			k := m.rand(len(m.timers))
			mt := m.timers[k]
			var name string
			switch r := m.rand(10); {
			case r < 3:
				name = "arm"
				m.arm(k, m.later())
			case r < 5 && mt.pending:
				name = "re-arm earlier"
				m.arm(k, m.e.Now()+float64(m.rand(int(mt.time-m.e.Now())+1)))
			case r < 6 && mt.pending:
				name = "re-arm later"
				m.arm(k, mt.time+float64(m.rand(4)))
			case r < 7:
				name = "cancel"
				mt.tm.Cancel()
				mt.pending = false
			default:
				name = "step"
				want := m.next()
				n := len(m.fired)
				ok, err := m.e.Step()
				if err != nil || ok != (want != nil) {
					t.Fatalf("seed %d op %d: step ok=%v err=%v, reference has %v", seed, op, ok, err, want)
				}
				if want != nil && (len(m.fired) != n+1 || m.fired[n] != want.id) {
					t.Fatalf("seed %d op %d: fired %v, want timer %d", seed, op, m.fired[n:], want.id)
				}
			}
			m.check(fmt.Sprintf("seed %d op %d (%s)", seed, op, name))
		}
		if len(m.fired) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
