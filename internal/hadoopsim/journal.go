package hadoopsim

import (
	"fmt"
	"sort"
	"strings"

	"github.com/adaptsim/adapt/internal/stats"
)

// EventKind tags journal entries.
type EventKind int

// Journal event kinds.
const (
	EventInterruption EventKind = iota + 1
	EventRecovery
	EventTaskStart
	EventTaskAbort
	EventTaskComplete
	EventMigration
	EventSpeculate
	// EventTaskCancel records a losing sibling attempt cancelled
	// because another attempt of the same task finished first.
	EventTaskCancel
)

func (k EventKind) String() string {
	switch k {
	case EventInterruption:
		return "interruption"
	case EventRecovery:
		return "recovery"
	case EventTaskStart:
		return "task-start"
	case EventTaskAbort:
		return "task-abort"
	case EventTaskComplete:
		return "task-complete"
	case EventMigration:
		return "migration"
	case EventSpeculate:
		return "speculate"
	case EventTaskCancel:
		return "task-cancel"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one journal entry.
type Event struct {
	Time float64
	Kind EventKind
	Node int
	Task int // -1 when not task-related
}

// Journal records simulation events when attached via
// Config.Journal. It is a plain slice recorder; Timeline renders it.
type Journal struct {
	Events []Event
}

func (j *Journal) record(t float64, kind EventKind, node, task int) {
	j.Events = append(j.Events, Event{Time: t, Kind: kind, Node: node, Task: task})
}

// Timeline renders a bucketed progress summary: completions,
// migrations, and interruptions per time bucket.
func (j *Journal) Timeline(buckets int) string {
	if buckets <= 0 {
		buckets = 10
	}
	var end float64
	for _, e := range j.Events {
		if e.Time > end {
			end = e.Time
		}
	}
	if end == 0 {
		return "empty journal\n"
	}
	type bucket struct{ done, mig, intr int }
	bs := make([]bucket, buckets)
	for _, e := range j.Events {
		i := int(e.Time / end * float64(buckets))
		if i >= buckets {
			i = buckets - 1
		}
		switch e.Kind {
		case EventTaskComplete:
			bs[i].done++
		case EventMigration:
			bs[i].mig++
		case EventInterruption:
			bs[i].intr++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %10s %13s\n", "window", "completed", "migrated", "interruptions")
	for i, b := range bs {
		lo := end * float64(i) / float64(buckets)
		hi := end * float64(i+1) / float64(buckets)
		fmt.Fprintf(&sb, "%7.0f-%-7.0fs %10d %10d %13d\n", lo, hi, b.done, b.mig, b.intr)
	}
	return sb.String()
}

// TaskLatencies returns the pending-to-completion latency of every
// completed task, derived from the journal.
func (j *Journal) TaskLatencies(submitted map[int]float64) []float64 {
	completion := map[int]float64{}
	for _, e := range j.Events {
		if e.Kind == EventTaskComplete && e.Task >= 0 {
			completion[e.Task] = e.Time
		}
	}
	out := make([]float64, 0, len(completion))
	tasks := make([]int, 0, len(completion))
	for task := range completion {
		tasks = append(tasks, task)
	}
	sort.Ints(tasks)
	for _, task := range tasks {
		start := 0.0
		if submitted != nil {
			start = submitted[task]
		}
		out = append(out, completion[task]-start)
	}
	return out
}

// LatencyPercentiles summarizes task latencies at p50/p95/p99.
func LatencyPercentiles(latencies []float64) (p50, p95, p99 float64) {
	return stats.Quantile(latencies, 0.50),
		stats.Quantile(latencies, 0.95),
		stats.Quantile(latencies, 0.99)
}
