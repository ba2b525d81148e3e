package stats

import (
	"strings"
	"testing"
)

// String methods are documentation surfaces: each must name the
// distribution and its parameters.
func TestDistributionStrings(t *testing.T) {
	exp, _ := NewExponential(0.5)
	uni, _ := NewUniform(1, 2)
	ln, _ := NewLogNormal(0, 1)
	wb, _ := NewWeibull(1.5, 2)
	pa, _ := NewPareto(1, 2)
	emp, _ := NewEmpirical([]float64{1, 2, 3})
	cases := []struct {
		d    Distribution
		want string
	}{
		{NewDeterministic(3), "deterministic"},
		{exp, "exponential"},
		{uni, "uniform"},
		{ln, "lognormal"},
		{wb, "weibull"},
		{pa, "pareto"},
		{emp, "empirical"},
		{Shifted{Base: exp, Offset: 1}, "shifted"},
	}
	for _, c := range cases {
		if got := c.d.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := summarize([]float64{1, 2, 3})
	out := s.String()
	for _, want := range []string{"n=3", "mean=2", "min=1", "max=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary string %q missing %q", out, want)
		}
	}
}

func TestEmpiricalVariance(t *testing.T) {
	d, err := NewEmpirical([]float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Variance(); got != 4 {
		t.Fatalf("variance = %g, want 4 (sample)", got)
	}
}

func TestShiftedVariance(t *testing.T) {
	exp, _ := NewExponential(0.5)
	d := Shifted{Base: exp, Offset: 10}
	if got := d.Variance(); got != exp.Variance() {
		t.Fatalf("shifted variance = %g, want %g", got, exp.Variance())
	}
}
