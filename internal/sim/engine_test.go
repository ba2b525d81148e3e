package sim

import (
	"errors"
	"fmt"
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

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var hits []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		mustAt(t, e, at, func() { hits = append(hits, at) })
	}
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %g, want 3", e.Now())
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 || e.Now() != 10 {
		t.Fatalf("hits = %v now = %g", hits, e.Now())
	}
	if err := e.RunUntil(5); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("past deadline: %v", err)
	}
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
	// Drop the cancelled event from the heap, emptying its slot.
	if err := e.RunUntil(2); err != nil {
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
// (once per timer), firing, and the lazy removal of cancelled events.
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
	if _, err := e.Step(); err != nil { // drops timer 0, fires timer 1
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
