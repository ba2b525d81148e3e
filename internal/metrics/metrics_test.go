package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestBreakdownRatios(t *testing.T) {
	b := Breakdown{Base: 1000, Rework: 100, Recovery: 200, Migration: 300, Misc: 400}
	r := b.Ratios()
	if r.Rework != 0.1 || r.Recovery != 0.2 || r.Migration != 0.3 || r.Misc != 0.4 {
		t.Fatalf("ratios = %+v", r)
	}
	if math.Abs(r.Total()-1.0) > 1e-12 {
		t.Fatalf("total = %g", r.Total())
	}
}

func TestBreakdownZeroBase(t *testing.T) {
	b := Breakdown{Rework: 5}
	if r := b.Ratios(); r != (Ratio{}) {
		t.Fatalf("zero base ratios = %+v", r)
	}
}

func TestRunResultLocality(t *testing.T) {
	r := RunResult{LocalTasks: 87, TotalTasks: 100}
	if got := r.Locality(); math.Abs(got-0.87) > 1e-12 {
		t.Fatalf("locality = %g", got)
	}
	if !math.IsNaN((RunResult{}).Locality()) {
		t.Fatal("empty locality should be NaN")
	}
}

func TestAggregate(t *testing.T) {
	var a Aggregate
	a.Observe(RunResult{
		Elapsed: 100, LocalTasks: 90, TotalTasks: 100,
		Breakdown: Breakdown{Base: 100, Rework: 10, Migration: 20},
	})
	a.Observe(RunResult{
		Elapsed: 200, LocalTasks: 80, TotalTasks: 100,
		Breakdown: Breakdown{Base: 100, Rework: 30, Migration: 40},
	})
	if a.Runs != 2 {
		t.Fatalf("runs = %d", a.Runs)
	}
	if got := a.Elapsed.Mean(); got != 150 {
		t.Fatalf("elapsed mean = %g", got)
	}
	if got := a.Locality.Mean(); math.Abs(got-0.85) > 1e-12 {
		t.Fatalf("locality mean = %g", got)
	}
	mr := a.MeanRatio()
	if math.Abs(mr.Rework-0.2) > 1e-12 || math.Abs(mr.Migration-0.3) > 1e-12 {
		t.Fatalf("mean ratio = %+v", mr)
	}
}

func TestAggregateEmpty(t *testing.T) {
	var a Aggregate
	if mr := a.MeanRatio(); mr != (Ratio{}) {
		t.Fatalf("empty mean ratio = %+v", mr)
	}
}

func TestRatioString(t *testing.T) {
	r := Ratio{Rework: 0.5, Recovery: 0.25, Migration: 0.125, Misc: 0.125}
	s := r.String()
	if !strings.Contains(s, "rework=50.0%") || !strings.Contains(s, "total=100.0%") {
		t.Fatalf("string = %q", s)
	}
}
