package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"github.com/adaptsim/adapt/internal/dfs"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	sorted := []float64{0, 10, 20, 30, 40}
	if got := quantile(sorted, 0.9); math.Abs(got-36) > 1e-9 {
		t.Errorf("p90 = %g, want 36", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it.
func TestTailPercent(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{24, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {500, 98}, {1000, 99}, {7000, 99}, {10000, 99.9}} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := iqrFrac([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 1 {
		t.Errorf("iqrFrac(1..10) = %g, want 1", got)
	}
	if got := iqrFrac([]float64{7}); got != 0 {
		t.Errorf("iqrFrac of one value = %g, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 10, End: 15}, // grandchild: not the parent's
	}
	self := selfTimes(spans)
	if self[1] != 40 {
		t.Errorf("parent self time = %g, want 40 (100 - [10,60] - [90,100])", self[1])
	}
	if self[2] != 25 || self[3] != 30 || self[5] != 5 {
		t.Errorf("child self times = %g %g %g, want 25 30 5", self[2], self[3], self[5])
	}
}

func TestNestReplaysAndLayerSelf(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Name: "full.put", Start: 100, End: 200},
		{ID: 2, Op: 8, Name: "full.put", Start: 200, End: 320},
		{ID: 3, Op: 7, Name: "direct.put", Start: 1000, End: 1030},
		{ID: 4, Op: 8, Name: "direct.put", Start: 1030, End: 1070},
		{ID: 5, Op: 9, Name: "direct.put", Start: 1070, End: 1100}, // no parent ran this op
	}
	nestReplays(spans, "full.put", "direct.put")
	if spans[2].Parent != 1 || spans[2].Start != 100 || spans[2].End != 130 {
		t.Errorf("replay of op 7 = %+v, want parent 1 at [100,130]", spans[2])
	}
	if spans[4].Parent != 0 {
		t.Errorf("replay without a parent got parent %d", spans[4].Parent)
	}
	// Durations 100 and 120, covered 30 and 40: medians 110 - 35 = 75 us.
	if got, ok := layerSelfMS(spans, "full.put"); !ok || math.Abs(got-0.075) > 1e-12 {
		t.Errorf("layerSelfMS = %g ms, %v, want 0.075", got, ok)
	}
	if _, ok := layerSelfMS(spans, "absent"); ok {
		t.Error("layerSelfMS reported a layer no span names")
	}
}

func TestCountingHooksPassThrough(t *testing.T) {
	var tr countingTransport
	for _, pair := range [][2]string{
		{"shell-0", "namenode"}, {"namenode", "datanode-3"}, {"datanode-3", "datanode-4"},
		{"datanode-1", "namenode"}, {"namenode", "datanode-0"},
	} {
		if err := tr.FailMessage(pair[0], pair[1]); err != nil {
			t.Fatalf("FailMessage(%s,%s) = %v, want nil", pair[0], pair[1], err)
		}
		if d := tr.MessageDelay(pair[0], pair[1]); d != 0 {
			t.Fatalf("MessageDelay = %v, want 0", d)
		}
	}
	if got, want := tr.snapshot(), (transportCounts{1, 2, 1, 1}); got != want {
		t.Errorf("transport counts = %+v, want %+v", got, want)
	}

	var st countingStore
	data := []byte{1, 2, 3}
	for _, op := range []int{0, 0, 1, 2} {
		if err := st.FailOp(0, dfs.Op(op), 9); err != nil {
			t.Fatalf("FailOp = %v, want nil", err)
		}
	}
	if got := st.CorruptRead(0, 9, data); &got[0] != &data[0] || len(got) != 3 {
		t.Error("CorruptRead did not return the bytes it was given")
	}
	if st.puts.Load() != 2 || st.gets.Load() != 1 || st.deletes.Load() != 1 {
		t.Errorf("store counts = %d %d %d, want 2 1 1", st.puts.Load(), st.gets.Load(), st.deletes.Load())
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json must repeat the metric tables of this package and
// stay inside the limits the driver refuses a file for.
func TestManifestMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool, max int) {
		t.Helper()
		if len(got) < 1 || len(got) > max || len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), max)
		}
		for i, g := range got {
			name(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %s: unit %q", kind, g.Name, g.Unit)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s %s: better %q", kind, g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the program has %g, limit 0.25", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true, 16)
	check("per_layer", m.PerLayer, perLayer, false, 128)
	if !seen["setup_s"] {
		t.Error("setup_s is not among the end-to-end metrics")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d parts", len(m.Command))
	}
}

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// Every workload, at a size that takes a moment, untraced and traced:
// the harness compiles, its output checks pass, and every declared
// metric is reported.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			out, err := run(options{workload: name, seed: 2, seconds: 0.05, trace: trace, tiny: true, buildDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s trace=%v: failed %d of %d: %v", name, trace, out.failed, out.attempted, out.firstErr)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			declared := map[string]bool{}
			for _, d := range defs {
				declared[d.Name] = true
				v, ok := out.metrics[d.Name]
				if !trace && !(ok && v > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, v)
				}
				// A layer the workload does not reach is filled from a
				// reference probe, so no time reads exactly zero. (A tiny
				// run may finish before the collector ever pauses.)
				if timeUnits[d.Unit] && v == 0 && d.Name != "proc.gc_pause_ms" {
					t.Errorf("%s trace=%v: time metric %s reads 0", name, trace, d.Name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %g", name, trace, d.Name, v)
				}
			}
			for got := range out.metrics {
				if !declared[got] {
					t.Errorf("%s trace=%v: undeclared metric %s", name, trace, got)
				}
			}
		}
	}
	if _, err := run(options{workload: "nope", seconds: 1, buildDir: dir}); err == nil {
		t.Error("an unknown workload ran")
	}
}

// The same seed gives the same inputs: payload bytes, file names and
// the mixed_rw read order.
func TestSeedIsTheOnlyVariation(t *testing.T) {
	w := dfsWorkloads(true)["mixed_rw"]
	plans := make([]roundPlan, 3)
	var first [][]byte
	for i, seed := range []uint64{5, 5, 6} {
		e, err := newDFSEnv(w, seed, 0, t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < w.preload; j++ {
			e.preNames = append(e.preNames, e.fileName(-2, 0, j))
		}
		plans[i] = w.plan(e, 0)
		if i == 0 {
			first = e.payloads
		} else if same := string(first[0]) == string(e.payloads[0]); same != (i == 1) {
			t.Errorf("seed %d: payloads equal to seed 5's = %v", seed, same)
		}
		if err := e.close(); err != nil {
			t.Fatal(err)
		}
	}
	key := func(p roundPlan) string {
		var s string
		for _, o := range p[0][1].ops[:32] {
			s += o.name + ";"
		}
		return p[0][0].ops[0].name + "|" + s
	}
	if key(plans[0]) != key(plans[1]) {
		t.Error("the same seed gave two different plans")
	}
	if key(plans[0]) == key(plans[2]) {
		t.Error("two seeds gave the same plan")
	}
}
