package chaos_test

import (
	"errors"
	"testing"

	"github.com/adaptsim/adapt/internal/chaos"
	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/metrics"
	"github.com/adaptsim/adapt/internal/stats"
	"github.com/adaptsim/adapt/internal/trace"
)

// recordingTarget captures every liveness flip.
type recordingTarget struct {
	ups   map[cluster.NodeID]bool
	flips []string
}

func newRecordingTarget() *recordingTarget {
	return &recordingTarget{ups: make(map[cluster.NodeID]bool)}
}

func (r *recordingTarget) SetNodeUp(id cluster.NodeID, up bool) error {
	r.ups[id] = up
	state := "down"
	if up {
		state = "up"
	}
	r.flips = append(r.flips, state)
	return nil
}

func emulated(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: nodes, InterruptedRatio: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEngineValidation(t *testing.T) {
	c := emulated(t, 2)
	g := stats.NewRNG(1)
	if _, err := chaos.New(chaos.Config{Cluster: c}, g); !errors.Is(err, chaos.ErrNoTarget) {
		t.Fatalf("missing target: %v", err)
	}
	if _, err := chaos.New(chaos.Config{Target: newRecordingTarget()}, g); !errors.Is(err, chaos.ErrNoCluster) {
		t.Fatalf("missing cluster: %v", err)
	}
	if _, err := chaos.New(chaos.Config{Cluster: c, Target: newRecordingTarget()}, nil); !errors.Is(err, chaos.ErrNilRNG) {
		t.Fatalf("missing rng: %v", err)
	}
}

func TestEngineDeterministicSchedule(t *testing.T) {
	run := func() []chaos.Event {
		e, err := chaos.New(chaos.Config{Cluster: emulated(t, 8), Target: newRecordingTarget()}, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		var events []chaos.Event
		for i := 0; i < 500; i++ {
			ev, ok, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			events = append(events, ev)
		}
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Virtual time must be monotone.
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatalf("time went backwards at event %d", i)
		}
	}
}

func TestEngineDedicatedClusterIsInert(t *testing.T) {
	c, err := cluster.New(make([]cluster.Node, 3)) // all dedicated
	if err != nil {
		t.Fatal(err)
	}
	tgt := newRecordingTarget()
	e, err := chaos.New(chaos.Config{Cluster: c, Target: tgt}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(tgt.flips) != 0 {
		t.Fatalf("dedicated cluster produced %d events, %d flips", n, len(tgt.flips))
	}
}

func TestEngineTraceReplay(t *testing.T) {
	tr := &trace.Trace{
		Host:    "h0",
		Horizon: 100,
		Events: []trace.Event{
			{Start: 10, Duration: 5},
			{Start: 30, Duration: 2},
		},
	}
	c, err := cluster.New([]cluster.Node{{Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newRecordingTarget()
	e, err := chaos.New(chaos.Config{Cluster: c, Target: tgt}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []chaos.Event
	for {
		ev, ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, ev)
	}
	want := []chaos.Event{
		{Time: 10, Node: 0, Kind: chaos.EventDown, Downtime: 5},
		{Time: 15, Node: 0, Kind: chaos.EventUp},
		{Time: 30, Node: 0, Kind: chaos.EventDown, Downtime: 2},
		{Time: 32, Node: 0, Kind: chaos.EventUp},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !tgt.ups[0] {
		t.Fatal("node should end up")
	}
}

func TestEngineQuiesceBringsEveryNodeUp(t *testing.T) {
	tgt := newRecordingTarget()
	e, err := chaos.New(chaos.Config{Cluster: emulated(t, 8), Target: tgt}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(200); err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for id, up := range tgt.ups {
		if !up {
			t.Fatalf("node %d still down after quiesce", id)
		}
	}
	// The schedule is exhausted: no more events.
	if n, err := e.Run(10); err != nil || n != 0 {
		t.Fatalf("post-quiesce Run = (%d, %v), want (0, nil)", n, err)
	}
}

func TestOpFaultsInjectAndClassify(t *testing.T) {
	g := stats.NewRNG(5)
	if _, err := chaos.NewOpFaults(nil); !errors.Is(err, chaos.ErrNilRNG) {
		t.Fatalf("nil rng: %v", err)
	}
	f, err := chaos.NewOpFaults(g)
	if err != nil {
		t.Fatal(err)
	}
	var counters metrics.ResilienceCounters
	f.Counters = &counters
	f.PutFailProb = 1
	f.GetFailProb = 1
	f.CorruptProb = 1
	f.Latency = stats.Deterministic{Value: 0.25}

	if err := f.FailOp(3, dfs.OpPut, 9); err == nil {
		t.Fatal("PutFailProb=1 must fail")
	} else if !dfs.IsTransient(err) {
		t.Fatalf("injected fault must be transient: %v", err)
	} else {
		var inj *chaos.InjectedError
		if !errors.As(err, &inj) || inj.Node != 3 || inj.Op != dfs.OpPut || inj.Block != 9 {
			t.Fatalf("injected error carries wrong context: %v", err)
		}
	}
	if err := f.FailOp(0, dfs.OpGet, 1); err == nil {
		t.Fatal("GetFailProb=1 must fail")
	}
	if err := f.FailOp(0, dfs.OpDelete, 1); err != nil {
		t.Fatalf("deletes are never failed: %v", err)
	}

	orig := []byte{0x00, 0x00, 0x00, 0x00}
	data := append([]byte(nil), orig...)
	out := f.CorruptRead(0, 1, data)
	diff := 0
	for i := range out {
		if out[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("CorruptProb=1 must flip exactly one byte's bit, changed %d bytes", diff)
	}

	snap := counters.Snapshot()
	if snap.InjectedFaults != 2 || snap.InjectedCorruptions != 1 {
		t.Fatalf("counters = %+v", snap)
	}
	if snap.InjectedLatency <= 0 {
		t.Fatal("latency not accounted")
	}
}
