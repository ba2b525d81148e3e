package trace

import (
	"math"
	"testing"

	"github.com/adaptsim/adapt/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultSETIConfig(16)
	a, err := Generate(cfg, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Traces {
		ea, eb := a.Traces[i].Events, b.Traces[i].Events
		if len(ea) != len(eb) {
			t.Fatalf("host %d event counts differ", i)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("host %d event %d differs", i, j)
			}
		}
	}
}

func TestGenerateValid(t *testing.T) {
	set, err := Generate(DefaultSETIConfig(64), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("generated set invalid: %v", err)
	}
	if set.Len() != 64 {
		t.Fatalf("hosts = %d", set.Len())
	}
}

// The headline calibration test: a generated population must
// approximately reproduce the paper's Table 1 statistics. The pooled
// CoV of a finite sample of a very heavy-tailed distribution is noisy,
// so tolerances are loose but directional: mean within 25%, CoV
// clearly in the heavy-tailed regime (> 2).
func TestGenerateTable1Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test needs a large population")
	}
	set, err := Generate(DefaultSETIConfig(4000), stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(set)
	if st.Interruptions < 1000 {
		t.Fatalf("too few interruptions generated: %d", st.Interruptions)
	}
	if m := st.MTBI.Mean(); math.Abs(m-SETIMTBIMean)/SETIMTBIMean > 0.25 {
		t.Errorf("MTBI mean = %g, want within 25%% of %g", m, SETIMTBIMean)
	}
	if m := st.Duration.Mean(); math.Abs(m-SETIDurationMean)/SETIDurationMean > 0.25 {
		t.Errorf("duration mean = %g, want within 25%% of %g", m, SETIDurationMean)
	}
	if c := st.MTBI.CoV(); c < 2 {
		t.Errorf("MTBI CoV = %g, want heavy-tailed (> 2)", c)
	}
	if c := st.Duration.CoV(); c < 2 {
		t.Errorf("duration CoV = %g, want heavy-tailed (> 2)", c)
	}
}

func TestGenerateHeterogeneity(t *testing.T) {
	// Per-host estimated availability must differ substantially
	// across hosts — this heterogeneity is the premise of the paper.
	set, err := Generate(DefaultSETIConfig(300), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var lambdas stats.Summary
	for i := range set.Traces {
		a := set.Traces[i].EstimateAvailability()
		if !a.Dedicated() {
			lambdas.Add(a.Lambda)
		}
	}
	if lambdas.Count() < 100 {
		t.Fatalf("too few interrupted hosts: %d", lambdas.Count())
	}
	if cov := lambdas.CoV(); cov < 0.5 {
		t.Errorf("lambda CoV across hosts = %g, want > 0.5", cov)
	}
}

func TestGenerateTimeScale(t *testing.T) {
	cfg := DefaultSETIConfig(50)
	cfg.TimeScale = 0.01
	set, err := Generate(cfg, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := set.Horizon, cfg.Horizon*0.01; math.Abs(got-want) > 1e-6 {
		t.Fatalf("horizon = %g, want %g", got, want)
	}
	// Event rate per (scaled) second should be ~unchanged: the mean
	// count per host is horizon/mtbi in both scalings.
	st := ComputeStats(set)
	if st.Interruptions == 0 {
		t.Fatal("no interruptions at scaled time")
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	g := stats.NewRNG(1)
	bad := []GeneratorConfig{
		{Hosts: 0, Horizon: 10, MTBIMean: 1, DurationMean: 1},
		{Hosts: 1, Horizon: 0, MTBIMean: 1, DurationMean: 1},
		{Hosts: 1, Horizon: 10, MTBIMean: 0, DurationMean: 1},
		{Hosts: 1, Horizon: 10, MTBIMean: 1, DurationMean: -1},
		{Hosts: 1, Horizon: 10, MTBIMean: 1, DurationMean: 1, MTBICoV: -1},
		{Hosts: 1, Horizon: 10, MTBIMean: 1, DurationMean: 1, HostShare: 1.5},
		{Hosts: 1, Horizon: 10, MTBIMean: 1, DurationMean: 1, TimeScale: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, g); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSplitCoV(t *testing.T) {
	h, w := splitCoV(4.376, 0.8)
	// Recombining: (1+h^2)(1+w^2)-1 = cov^2
	recombined := math.Sqrt((1+h*h)*(1+w*w) - 1)
	if math.Abs(recombined-4.376) > 1e-9 {
		t.Fatalf("recombined CoV = %g, want 4.376", recombined)
	}
	if h0, w0 := splitCoV(0, 0.8); h0 != 0 || w0 != 0 {
		t.Fatal("zero CoV should split to zeros")
	}
}
