package hadoopsim

import (
	"strings"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/placement"
	"github.com/adaptsim/adapt/internal/stats"
)

func journalRun(t *testing.T) (*Journal, int) {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{
		Nodes: 16, InterruptedRatio: 0.5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{}
	const blocks = 160
	pol := &placement.Random{Cluster: c}
	asn, err := placement.PlaceAll(pol, blocks, 1, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Cluster: c, Assignment: asn, Journal: j}, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != blocks {
		t.Fatalf("tasks = %d", res.TotalTasks)
	}
	return j, blocks
}

func TestJournalCompletionsMatchTasks(t *testing.T) {
	j, blocks := journalRun(t)
	if got := j.Count(EventTaskComplete); got != blocks {
		t.Fatalf("completions = %d, want %d", got, blocks)
	}
	// Every completion implies at least one start.
	if starts := j.Count(EventTaskStart); starts < blocks {
		t.Fatalf("starts = %d < completions %d", starts, blocks)
	}
	// Aborts are the start surplus minus cancelled duplicates; at
	// minimum starts >= completions + aborts is not guaranteed (dup
	// cancels), but aborts never exceed starts.
	if j.Count(EventTaskAbort) > j.Count(EventTaskStart) {
		t.Fatal("more aborts than starts")
	}
}

func TestJournalAttemptsHistogram(t *testing.T) {
	j, blocks := journalRun(t)
	hist := j.AttemptsPerTask()
	total := 0
	for attempts, n := range hist {
		if attempts < 1 {
			t.Fatalf("nonsense attempt count %d", attempts)
		}
		total += n
	}
	if total != blocks {
		t.Fatalf("histogram covers %d tasks, want %d", total, blocks)
	}
	if hist[1] == 0 {
		t.Fatal("no task completed on the first attempt?")
	}
}

func TestJournalNodeDowntime(t *testing.T) {
	j, _ := journalRun(t)
	down := j.NodeDowntime()
	if len(down) == 0 {
		t.Fatal("no downtime recorded on an interrupted cluster")
	}
	for node, d := range down {
		if d <= 0 {
			t.Fatalf("node %d downtime %g", node, d)
		}
	}
}

func TestJournalTimeline(t *testing.T) {
	j, _ := journalRun(t)
	tl := j.Timeline(5)
	if !strings.Contains(tl, "completed") {
		t.Fatalf("timeline: %s", tl)
	}
	if got := strings.Count(tl, "\n"); got != 6 { // header + 5 buckets
		t.Fatalf("timeline lines = %d:\n%s", got, tl)
	}
	empty := (&Journal{}).Timeline(5)
	if !strings.Contains(empty, "empty") {
		t.Fatalf("empty timeline: %q", empty)
	}
}

func TestJournalTaskLatencies(t *testing.T) {
	j, blocks := journalRun(t)
	lats := j.TaskLatencies(nil)
	if len(lats) != blocks {
		t.Fatalf("latencies = %d", len(lats))
	}
	p50, p95, p99 := LatencyPercentiles(lats)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("percentiles not ordered: %g %g %g", p50, p95, p99)
	}
	if p50 < DefaultGamma {
		t.Fatalf("p50 latency %g below one task time", p50)
	}
}

func TestJournalEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventInterruption, EventRecovery, EventTaskStart,
		EventTaskAbort, EventTaskComplete, EventMigration, EventSpeculate,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
}

// Count returns the number of events of a kind.
func (j *Journal) Count(kind EventKind) int {
	n := 0
	for _, e := range j.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// AttemptsPerTask returns a histogram: index = attempts per completed
// task (1 = first try), value = task count.
func (j *Journal) AttemptsPerTask() map[int]int {
	starts := map[int]int{}
	for _, e := range j.Events {
		if e.Kind == EventTaskStart && e.Task >= 0 {
			starts[e.Task]++
		}
	}
	hist := map[int]int{}
	for _, n := range starts {
		hist[n]++
	}
	return hist
}

// AttemptAccounting summarizes per-attempt scheduling effort from the
// journal: how many attempts were launched, how many of those were
// speculative duplicates, how many lost a first-finisher race and
// were cancelled, and how many died with their node's interruption.
type AttemptAccounting struct {
	// Launched counts every attempt start (first tries, re-executions
	// after aborts, and duplicates).
	Launched int
	// Speculative counts duplicate launches (reactive, predictive, or
	// redundant policy extras).
	Speculative int
	// Cancelled counts losing sibling attempts cancelled when another
	// attempt of the same task finished first.
	Cancelled int
	// Aborted counts attempts killed by their executor's interruption.
	Aborted int
}

// Attempts tallies the journal's per-attempt accounting.
func (j *Journal) Attempts() AttemptAccounting {
	return AttemptAccounting{
		Launched:    j.Count(EventTaskStart),
		Speculative: j.Count(EventSpeculate),
		Cancelled:   j.Count(EventTaskCancel),
		Aborted:     j.Count(EventTaskAbort),
	}
}

// NodeDowntime returns per-node total downtime observed in the
// journal (interruption→recovery pairing; an open outage at the end
// of the run is closed at the last event time).
func (j *Journal) NodeDowntime() map[int]float64 {
	downSince := map[int]float64{}
	out := map[int]float64{}
	var last float64
	for _, e := range j.Events {
		if e.Time > last {
			last = e.Time
		}
		switch e.Kind {
		case EventInterruption:
			if _, open := downSince[e.Node]; !open {
				downSince[e.Node] = e.Time
			}
		case EventRecovery:
			if since, open := downSince[e.Node]; open {
				out[e.Node] += e.Time - since
				delete(downSince, e.Node)
			}
		}
	}
	for node, since := range downSince {
		out[node] += last - since
	}
	return out
}
