// Package trace models host interruption traces: sequences of
// (start, duration) unavailability events per host, in the style of
// the Failure Trace Archive (FTA) data the ADAPT paper uses for its
// large-scale simulations.
//
// The package provides
//
//   - the event/trace data model with invariant checks,
//   - per-host (λ, μ) estimation — the quantities the NameNode's
//     heartbeat collector feeds the performance predictor,
//   - population statistics reproducing the paper's Table 1
//     (mean / stddev / CoV of MTBI and interruption duration),
//   - a synthetic SETI@home-like generator calibrated to Table 1
//     (the substitution for the proprietary FTA download), and
//   - an FTA-like CSV codec so real traces can be dropped in.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/stats"
)

// Event is one interruption: the host becomes unavailable at Start and
// recovers after Duration seconds.
type Event struct {
	Start    float64 // seconds since trace origin
	Duration float64 // seconds of downtime
}

// End returns the recovery instant.
func (e Event) End() float64 { return e.Start + e.Duration }

// Trace is the interruption history of a single host over the
// observation window [0, Horizon). Events are kept sorted by start
// time and may overlap only through queueing semantics applied by
// consumers (the simulator serializes overlapping recoveries FCFS).
type Trace struct {
	Host    string
	Horizon float64
	Events  []Event
}

// Validation errors.
var (
	ErrUnsorted     = errors.New("trace: events not sorted by start time")
	ErrBadEvent     = errors.New("trace: event has negative start or duration")
	ErrBadHorizon   = errors.New("trace: horizon must be positive")
	ErrOutOfHorizon = errors.New("trace: event starts beyond horizon")
)

// Validate checks the trace invariants.
func (t *Trace) Validate() error {
	if t.Horizon <= 0 || math.IsNaN(t.Horizon) {
		return fmt.Errorf("%w: %g", ErrBadHorizon, t.Horizon)
	}
	prev := math.Inf(-1)
	for i, e := range t.Events {
		if e.Start < 0 || e.Duration < 0 || math.IsNaN(e.Start) || math.IsNaN(e.Duration) {
			return fmt.Errorf("%w: event %d = %+v", ErrBadEvent, i, e)
		}
		if e.Start < prev {
			return fmt.Errorf("%w: event %d starts at %g after %g", ErrUnsorted, i, e.Start, prev)
		}
		if e.Start >= t.Horizon {
			return fmt.Errorf("%w: event %d starts at %g, horizon %g", ErrOutOfHorizon, i, e.Start, t.Horizon)
		}
		prev = e.Start
	}
	return nil
}

// Sort orders events by start time (stable).
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		return t.Events[i].Start < t.Events[j].Start
	})
}

// InterruptionCount returns the number of recorded interruptions.
func (t *Trace) InterruptionCount() int { return len(t.Events) }

// MTBIs returns the observed inter-arrival gaps between consecutive
// interruption starts. With fewer than two events it returns nil.
func (t *Trace) MTBIs() []float64 {
	if len(t.Events) < 2 {
		return nil
	}
	out := make([]float64, 0, len(t.Events)-1)
	for i := 1; i < len(t.Events); i++ {
		out = append(out, t.Events[i].Start-t.Events[i-1].Start)
	}
	return out
}

// Durations returns the interruption durations.
func (t *Trace) Durations() []float64 {
	out := make([]float64, len(t.Events))
	for i, e := range t.Events {
		out[i] = e.Duration
	}
	return out
}

// EstimateAvailability derives the (λ, μ) parameters the ADAPT
// performance predictor consumes: λ as interruptions per second of
// observation and μ as the mean interruption duration. A trace with no
// events estimates a dedicated host.
func (t *Trace) EstimateAvailability() model.Availability {
	if len(t.Events) == 0 || t.Horizon <= 0 {
		return model.Availability{}
	}
	lambda := float64(len(t.Events)) / t.Horizon
	mu := stats.Mean(t.Durations())
	return model.Availability{Lambda: lambda, Mu: mu}
}

// DowntimeFraction returns the fraction of the horizon the host was
// unavailable, merging overlapping events (an event arriving during
// another's recovery extends the outage FCFS).
//
//lint:ignore deadcode unused library code: ROADMAP item 25 makes its FCFS merge the one outage walk
func (t *Trace) DowntimeFraction() float64 {
	if t.Horizon <= 0 {
		return 0
	}
	var down float64
	var until float64 // current outage extends to here (FCFS queueing)
	for _, e := range t.Events {
		var s, en float64
		if e.Start < until {
			s = until
			en = until + e.Duration
		} else {
			s = e.Start
			en = e.Start + e.Duration
		}
		until = en
		if s >= t.Horizon {
			break
		}
		if en > t.Horizon {
			en = t.Horizon
		}
		down += en - s
	}
	return down / t.Horizon
}

// Window extracts the sub-trace intersecting [from, from+length),
// re-based so the window start is time zero. Events that begin before
// the window but whose downtime extends into it are clipped to start
// at zero. This implements the paper's trace-replay setup where a
// job-sized window is sampled from a long failure trace.
//
//lint:ignore deadcode unused library code: ROADMAP item 22 splits traces into train and test windows with it
func (t *Trace) Window(from, length float64) Trace {
	out := Trace{Host: t.Host, Horizon: length}
	to := from + length
	for _, e := range t.Events {
		if e.End() <= from || e.Start >= to {
			continue
		}
		start := e.Start - from
		dur := e.Duration
		if start < 0 {
			dur += start // clip leading part
			start = 0
		}
		out.Events = append(out.Events, Event{Start: start, Duration: dur})
	}
	return out
}

// DownAt reports whether the host is inside an outage at time x,
// applying FCFS extension of overlapping events.
//
//lint:ignore deadcode invariant oracle: hadoopsim's TestTraceReplayMatchesDownAt checks the simulator's replay against it
func (t *Trace) DownAt(x float64) bool {
	var until float64
	for _, e := range t.Events {
		if e.Start > x && e.Start > until {
			return false
		}
		if e.Start < until {
			until += e.Duration
		} else {
			until = e.Start + e.Duration
		}
		if e.Start <= x && x < until {
			return true
		}
	}
	return false
}

// Set is a collection of per-host traces sharing one horizon.
type Set struct {
	Horizon float64
	Traces  []Trace
}

// Validate checks every member trace and the shared horizon.
func (s *Set) Validate() error {
	if s.Horizon <= 0 || math.IsNaN(s.Horizon) {
		return fmt.Errorf("%w: %g", ErrBadHorizon, s.Horizon)
	}
	for i := range s.Traces {
		if s.Traces[i].Horizon != s.Horizon {
			return fmt.Errorf("trace %d: horizon %g differs from set horizon %g",
				i, s.Traces[i].Horizon, s.Horizon)
		}
		if err := s.Traces[i].Validate(); err != nil {
			return fmt.Errorf("trace %d (%s): %w", i, s.Traces[i].Host, err)
		}
	}
	return nil
}

// Len returns the number of hosts.
func (s *Set) Len() int { return len(s.Traces) }

// Stats aggregates Table 1-style statistics over a trace set.
type Stats struct {
	Hosts         int
	Interruptions int64
	MTBI          stats.Summary // inter-arrival gaps pooled over hosts
	Duration      stats.Summary // interruption durations pooled over hosts
}

// ComputeStats pools MTBI gaps and durations across all hosts, the way
// the paper's Table 1 summarizes the SETI@home data.
func ComputeStats(s *Set) Stats {
	out := Stats{Hosts: s.Len()}
	for i := range s.Traces {
		tr := &s.Traces[i]
		out.Interruptions += int64(tr.InterruptionCount())
		for _, g := range tr.MTBIs() {
			out.MTBI.Add(g)
		}
		for _, d := range tr.Durations() {
			out.Duration.Add(d)
		}
	}
	return out
}

// Table1Row holds one row of the paper's Table 1.
type Table1Row struct {
	Name   string
	Mean   float64
	StdDev float64
	CoV    float64
}

// Table1 renders the statistics in the paper's Table 1 layout.
func (st Stats) Table1() []Table1Row {
	return []Table1Row{
		{Name: "MTBI (seconds)", Mean: st.MTBI.Mean(), StdDev: st.MTBI.StdDev(), CoV: st.MTBI.CoV()},
		{Name: "Interruption Duration (seconds)", Mean: st.Duration.Mean(), StdDev: st.Duration.StdDev(), CoV: st.Duration.CoV()},
	}
}
