// Package sim is a deterministic discrete-event simulation kernel: a
// virtual clock, an indexed binary-heap event queue with stable FIFO
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

// event is the pending firing of a timer. Events live by value in the
// engine's heap array, so scheduling allocates no event: the array's
// slots are the free list, reused as the heap shrinks and grows.
type event struct {
	time  float64
	seq   uint64 // FIFO tie-break for equal times
	timer *Timer
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

// Handler is what a timer runs when it fires.
type Handler interface{ Fire() }

// Timer is a re-armable cell owned by whoever schedules through it,
// usually embedded in the struct it belongs to; its zero value is idle.
// A pending timer owns exactly one event in its engine's heap and
// knows where: slot is 1 + that event's heap position, 0 when idle.
// Cancelling removes the event and re-arming moves it, so the heap
// holds only live events and none can outlive its arming.
type Timer struct {
	engine *Engine
	h      Handler
	slot   int
}

// Cancel removes the pending firing. It is safe to call multiple
// times, on an idle timer and after the event has fired (no-ops).
func (t *Timer) Cancel() {
	if t == nil || t.slot == 0 {
		return
	}
	t.engine.remove(t.slot - 1)
}

// Active reports whether the timer has a firing pending.
func (t *Timer) Active() bool {
	return t != nil && t.slot != 0
}

// funcHandler adapts a callback to Handler for At and After.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Engine is the simulation core. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now float64
	seq uint64
	// events is a binary min-heap ordered by event.before, one
	// event per pending timer; each event's timer.slot tracks its
	// position.
	events []event
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

// Reset empties the engine for a new run and keeps its heap's
// capacity: every pending timer goes idle, and the clock, the
// scheduling sequence, the processed count and Limit return to zero.
func (e *Engine) Reset() {
	for i := range e.events {
		e.events[i].timer.slot = 0
	}
	clear(e.events) // release the timers
	*e = Engine{events: e.events[:0]}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
//
//lint:ignore deadcode invariant oracle: hadoopsim's allocation tests count the events a run fired
func (e *Engine) Processed() uint64 { return e.processed }

// Arm schedules tm to fire h at absolute virtual time t. Arming a
// pending timer moves its event to t in place, ordered as a new arming
// would be, so a timer has at most one firing pending; a handler may
// re-arm its own timer.
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
	tm.h = h
	if tm.slot != 0 && tm.engine == e {
		i := tm.slot - 1
		e.events[i].time, e.events[i].seq = t, e.seq
		if !e.down(i) {
			e.up(i)
		}
	} else {
		tm.Cancel()
		tm.engine = e
		e.events = append(e.events, event{time: t, seq: e.seq, timer: tm})
		e.up(len(e.events) - 1)
	}
	e.seq++
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

// up sifts the event at i toward the root to its place.
func (e *Engine) up(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].timer.slot = i + 1
		i = parent
	}
	h[i] = ev
	ev.timer.slot = i + 1
}

// down sifts the event at i toward the leaves to its place and reports
// whether it moved.
func (e *Engine) down(i int) bool {
	h := e.events
	n := len(h)
	ev := h[i]
	i0 := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&ev) {
			break
		}
		h[i] = h[child]
		h[i].timer.slot = i + 1
		i = child
	}
	h[i] = ev
	ev.timer.slot = i + 1
	return i > i0
}

// remove deletes the event at i and idles its timer. The hole sinks to
// a leaf, each level taking the earlier child, and the last event fills
// it and rises to its place: it came from the bottom and nearly always
// belongs there, so this costs one comparison per level on the way
// down where sifting it down from i would cost two.
func (e *Engine) remove(i int) {
	h := e.events
	h[i].timer.slot = 0
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the timer
	h = h[:n]
	e.events = h
	if i == n {
		return
	}
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		h[i] = h[child]
		h[i].timer.slot = i + 1
		i = child
	}
	h[i] = last
	e.up(i)
}

// Step executes the earliest pending event. It returns false when the
// queue is empty. Callers that need to halt on a domain condition
// (e.g. "all tasks done" while periodic events remain queued) drive
// the engine with Step instead of Run.
func (e *Engine) Step() (bool, error) {
	if len(e.events) == 0 {
		return false, nil
	}
	ev := e.events[0]
	e.remove(0)
	e.now = ev.time
	e.processed++
	if e.Limit > 0 && e.processed > e.Limit {
		return false, fmt.Errorf("%w: %d", ErrEventLimit, e.Limit)
	}
	ev.timer.h.Fire()
	return true, nil
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
