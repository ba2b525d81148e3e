// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, a binary-heap event queue with stable FIFO
// tie-breaking, and re-armable, cancellable timers. All higher-level
// simulators in this repository (the Hadoop-analog simulator, the mini
// MapReduce engine) are built on it.
//
// The kernel is intentionally single-threaded: determinism — same
// inputs, same seed, same schedule — is a design requirement for
// reproducible experiments, and the simulated workloads are CPU-bound
// rather than I/O-bound.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// event is one arming of a timer. Events live by value in the
// engine's heap array, so scheduling allocates no event: the array's
// slots are the free list, reused as the heap shrinks and grows.
type event struct {
	time  float64
	seq   uint64 // FIFO tie-break for equal times
	timer *Timer
	gen   uint64 // the timer's generation when this event was armed
}

// before orders events by time, then by scheduling order. The order is
// total, so the sequence of firings does not depend on the heap's
// shape.
func (a *event) before(b *event) bool {
	if a.time < b.time {
		return true
	}
	if a.time > b.time {
		return false
	}
	return a.seq < b.seq
}

// stale reports that the event no longer stands for its timer's
// current arming: the timer was cancelled, fired, or armed again since.
func (a *event) stale() bool {
	return !a.timer.pending || a.timer.gen != a.gen
}

// Handler is what a timer runs when it fires.
type Handler interface{ Fire() }

// Timer is a re-armable cell owned by whoever schedules through it,
// usually embedded in the struct it belongs to; its zero value is idle.
// Each arming bumps gen, and an event fires only if it carries the
// timer's current generation while the timer is pending, so an event
// left in the heap by an earlier arming (cancelled, or superseded by a
// re-arm) can never fire into the cell.
type Timer struct {
	engine  *Engine
	h       Handler
	gen     uint64
	pending bool
}

// Cancel prevents the pending firing. It is safe to call multiple
// times, on an idle timer and after the event has fired (no-ops). The
// event itself is dropped lazily, when it reaches the top of the heap.
func (t *Timer) Cancel() {
	if t == nil || !t.pending {
		return
	}
	t.pending = false
	t.engine.live--
}

// Active reports whether the timer has a firing pending.
func (t *Timer) Active() bool {
	return t != nil && t.pending
}

// funcHandler adapts a callback to Handler for At and After.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Engine is the simulation core. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now float64
	seq uint64
	// events is a binary min-heap ordered by event.before. Stale
	// events stay in it until they surface.
	events []event
	// live counts the pending timers: the events in the heap that are
	// not stale.
	live int
	// processed counts events executed, for diagnostics and runaway
	// protection.
	processed uint64
	// Limit optionally bounds the number of processed events; 0 means
	// unlimited. Run returns ErrEventLimit when exceeded.
	Limit uint64
}

// Errors returned by Run.
var (
	// ErrPastEvent is returned when scheduling before the current
	// virtual time.
	ErrPastEvent = errors.New("sim: cannot schedule event in the past")
	// ErrEventLimit is returned when Engine.Limit is exceeded,
	// indicating a likely scheduling bug (event storm).
	ErrEventLimit = errors.New("sim: event limit exceeded")
)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled (uncancelled) events.
//
//lint:ignore deadcode invariant oracle: engine tests check the live count through schedule, cancel and fire
func (e *Engine) Pending() int { return e.live }

// Processed returns the number of events executed so far.
//
//lint:ignore deadcode invariant oracle: engine tests check every scheduled event fired exactly once
func (e *Engine) Processed() uint64 { return e.processed }

// Arm schedules tm to fire h at absolute virtual time t. Arming a
// pending timer cancels its earlier firing first, so a timer has at
// most one firing pending; a handler may re-arm its own timer.
// Scheduling at the current time is allowed (the event runs after the
// current handler returns). It returns an error, and leaves tm as it
// was, if t precedes the current time or is not finite.
func (e *Engine) Arm(tm *Timer, t float64, h Handler) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("sim: non-finite event time %g", t)
	}
	if t < e.now {
		return fmt.Errorf("%w: t=%g now=%g", ErrPastEvent, t, e.now)
	}
	if h == nil {
		return errors.New("sim: nil event handler")
	}
	tm.Cancel()
	tm.engine, tm.h, tm.pending = e, h, true
	tm.gen++
	e.push(event{time: t, seq: e.seq, timer: tm, gen: tm.gen})
	e.seq++
	e.live++
	return nil
}

// At schedules fn at absolute virtual time t on a timer of its own; it
// fails as Arm does, or on a nil fn.
func (e *Engine) At(t float64, fn func()) (*Timer, error) {
	if fn == nil {
		return nil, errors.New("sim: nil event callback")
	}
	timer := new(Timer)
	if err := e.Arm(timer, t, funcHandler(fn)); err != nil {
		return nil, err
	}
	return timer, nil
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) (*Timer, error) {
	if d < 0 {
		return nil, fmt.Errorf("%w: delay %g", ErrPastEvent, d)
	}
	return e.At(e.now+d, fn)
}

// push appends ev and sifts it up to its place.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event. The heap must not be
// empty.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the timer
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// Step executes the earliest pending event. It returns false when the
// queue is empty. Callers that need to halt on a domain condition
// (e.g. "all tasks done" while periodic events remain queued) drive
// the engine with Step instead of Run.
func (e *Engine) Step() (bool, error) {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.stale() {
			continue
		}
		tm := ev.timer
		tm.pending = false
		e.live--
		e.now = ev.time
		e.processed++
		if e.Limit > 0 && e.processed > e.Limit {
			return false, fmt.Errorf("%w: %d", ErrEventLimit, e.Limit)
		}
		tm.h.Fire()
		return true, nil
	}
	return false, nil
}

// Run executes events until the queue drains.
func (e *Engine) Run() error {
	for {
		ok, err := e.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// RunUntil executes events with time <= deadline, advancing the clock
// to exactly deadline when the queue drains or the next event lies
// beyond it.
//
//lint:ignore deadcode unused library code kept with its tests (TestRunUntil, TestStaleTimerCannotTouchSlotReuse)
func (e *Engine) RunUntil(deadline float64) error {
	if deadline < e.now {
		return fmt.Errorf("%w: deadline=%g now=%g", ErrPastEvent, deadline, e.now)
	}
	for {
		// Drop stale events until a live one is on top.
		for len(e.events) > 0 && e.events[0].stale() {
			e.pop()
		}
		if len(e.events) == 0 || e.events[0].time > deadline {
			e.now = deadline
			return nil
		}
		if _, err := e.Step(); err != nil {
			return err
		}
	}
}
