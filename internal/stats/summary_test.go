package stats

import (
	"math"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %g, want 5", got)
	}
	// Population variance is 4; sample variance is 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance = %g, want %g", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("sum = %g", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty summary should return NaN moments")
	}
	if !math.IsNaN(s.Variance()) {
		t.Fatal("empty variance should be NaN")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(7)
	if s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 {
		t.Fatal("single-element summary wrong")
	}
	if !math.IsNaN(s.Variance()) {
		t.Fatal("variance with n=1 should be NaN")
	}
}

func TestSummaryCoV(t *testing.T) {
	s := summarize([]float64{10, 10, 10})
	if got := s.CoV(); got != 0 {
		t.Fatalf("CoV of constant = %g, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if vals[0] != 5 {
		t.Fatal("Quantile mutated its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{0, 10}
	if got := Quantile(vals, 0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %g, want 5", got)
	}
}

func TestMeanHelper(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestSummaryStdErr(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4})
	want := s.StdDev() / 2
	if math.Abs(s.StdErr()-want) > 1e-12 {
		t.Fatalf("stderr = %g, want %g", s.StdErr(), want)
	}
}

// summarize builds a Summary from a slice in one call.
func summarize(values []float64) Summary {
	var s Summary
	for _, v := range values {
		s.Add(v)
	}
	return s
}
