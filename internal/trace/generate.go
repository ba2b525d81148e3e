package trace

import (
	"fmt"
	"math"
	"strconv"

	"github.com/adaptsim/adapt/internal/stats"
)

// SETIMTBIMean, SETIMTBICoV, SETIDurationMean and SETIDurationCoV are
// the SETI@home statistics the paper reports in Table 1. The synthetic
// generator is calibrated so that a large generated population
// reproduces them.
const (
	SETIMTBIMean     = 160290.0 // seconds
	SETIMTBICoV      = 4.376
	SETIDurationMean = 109380.0 // seconds
	SETIDurationCoV  = 7.3869
)

// GeneratorConfig parameterizes the synthetic FTA-style trace
// generator. Heterogeneity across hosts is produced in two layers:
// each host draws its personal mean MTBI and mean duration from
// heavy-tailed population distributions, then generates its events
// from per-host distributions around those means. This two-layer
// structure is what gives volunteer-computing populations their very
// high pooled CoV (Table 1) — most hosts are stable, a minority is
// wildly unstable.
type GeneratorConfig struct {
	// Hosts is the number of hosts to generate.
	Hosts int
	// Horizon is the observation window length in seconds (the paper
	// used 1.5 years of SETI@home data; the default configuration
	// uses the same scale).
	Horizon float64
	// MTBIMean and MTBICoV describe the pooled inter-arrival target.
	MTBIMean, MTBICoV float64
	// DurationMean and DurationCoV describe the pooled duration
	// target.
	DurationMean, DurationCoV float64
	// HostShare is the fraction of pooled variability attributed to
	// cross-host heterogeneity (the rest is within-host). Must be in
	// (0, 1). The default 0.8 reflects that FTA variability is
	// dominated by differences between hosts.
	HostShare float64
	// TimeScale uniformly rescales all times (means stay calibrated
	// to Table 1 when TimeScale == 1). Simulation experiments use a
	// smaller scale to condition on job-sized windows.
	TimeScale float64
}

// DefaultSETIConfig returns the Table 1-calibrated configuration for
// the given number of hosts over a 1.5-year horizon.
func DefaultSETIConfig(hosts int) GeneratorConfig {
	return GeneratorConfig{
		Hosts:        hosts,
		Horizon:      1.5 * 365 * 24 * 3600,
		MTBIMean:     SETIMTBIMean,
		MTBICoV:      SETIMTBICoV,
		DurationMean: SETIDurationMean,
		DurationCoV:  SETIDurationCoV,
		HostShare:    0.8,
		TimeScale:    1,
	}
}

func (c *GeneratorConfig) applyDefaults() {
	if c.HostShare == 0 {
		c.HostShare = 0.8
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
}

func (c *GeneratorConfig) validate() error {
	if c.Hosts <= 0 {
		return fmt.Errorf("trace: host count must be positive, got %d", c.Hosts)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("trace: horizon must be positive, got %g", c.Horizon)
	}
	if c.MTBIMean <= 0 || c.DurationMean <= 0 {
		return fmt.Errorf("trace: means must be positive (mtbi=%g, duration=%g)",
			c.MTBIMean, c.DurationMean)
	}
	if c.MTBICoV < 0 || c.DurationCoV < 0 {
		return fmt.Errorf("trace: CoVs must be non-negative (mtbi=%g, duration=%g)",
			c.MTBICoV, c.DurationCoV)
	}
	if c.HostShare <= 0 || c.HostShare >= 1 {
		return fmt.Errorf("trace: host share must be in (0,1), got %g", c.HostShare)
	}
	if c.TimeScale <= 0 {
		return fmt.Errorf("trace: time scale must be positive, got %g", c.TimeScale)
	}
	return nil
}

// splitCoV splits a pooled CoV target into a cross-host component and
// a within-host component such that, to first order, the pooled
// variance of a two-layer lognormal hierarchy matches the target.
//
// For X = M·W with independent lognormals M (host mean, mean 1) and W
// (within-host factor), CoV²(X) = (1+CoV²M)(1+CoV²W) − 1. We allocate
// `share` of log-variance to the host layer.
func splitCoV(cov, share float64) (hostCoV, withinCoV float64) {
	if cov == 0 {
		return 0, 0
	}
	// total log-variance for a lognormal with this CoV
	// sigma^2 = ln(1+cov^2)
	total := logVar(cov)
	h := total * share
	w := total - h
	return covFromLogVar(h), covFromLogVar(w)
}

func logVar(cov float64) float64 { return math.Log1p(cov * cov) }

// covFromLogVar inverts logVar.
func covFromLogVar(v float64) float64 { return math.Sqrt(math.Expm1(v)) }

// Generate produces a synthetic FTA-style trace set. Determinism: the
// same config and seed always produce the same set.
func Generate(cfg GeneratorConfig, g *stats.RNG) (*Set, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	hostMTBICoV, withinMTBICoV := splitCoV(cfg.MTBICoV, cfg.HostShare)
	hostDurCoV, withinDurCoV := splitCoV(cfg.DurationCoV, cfg.HostShare)

	// Population distribution of per-host MTBI multipliers. Pooled
	// (per-event) statistics are length-biased: a host with mean gap m
	// contributes ~Horizon/m gaps, so the pooled mean gap is the
	// harmonic mean of host means. Choosing the multiplier f as
	// LogNormal(mu=sigma^2/2, sigma) gives E[1/f] = 1, which makes the
	// pooled mean equal to cfg.MTBIMean exactly while keeping the
	// pooled CoV at (1+CoV_h^2)(1+CoV_w^2)-1 as split above.
	sigmaH := math.Sqrt(math.Log1p(hostMTBICoV * hostMTBICoV))
	hostMTBI, err := stats.NewLogNormal(sigmaH*sigmaH/2, sigmaH)
	if err != nil {
		return nil, fmt.Errorf("trace: host MTBI layer: %w", err)
	}
	// Duration multipliers are sampled independently of the host's
	// MTBI, so the event-weighted pooled duration mean is unbiased and
	// a mean-1 multiplier suffices.
	hostDur, err := stats.LogNormalFromMeanCoV(1, hostDurCoV)
	if err != nil {
		return nil, fmt.Errorf("trace: host duration layer: %w", err)
	}

	set := &Set{Horizon: cfg.Horizon * cfg.TimeScale}
	set.Traces = make([]Trace, 0, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		hg := g.Split()
		meanMTBI := cfg.MTBIMean * hostMTBI.Sample(hg) * cfg.TimeScale
		meanDur := cfg.DurationMean * hostDur.Sample(hg) * cfg.TimeScale

		interarrival, err := stats.LogNormalFromMeanCoV(meanMTBI, withinMTBICoV)
		if err != nil {
			return nil, fmt.Errorf("trace: host %d interarrival: %w", i, err)
		}
		duration, err := stats.LogNormalFromMeanCoV(meanDur, withinDurCoV)
		if err != nil {
			return nil, fmt.Errorf("trace: host %d duration: %w", i, err)
		}

		tr := Trace{Host: "host-" + strconv.Itoa(i), Horizon: set.Horizon}
		t := interarrival.Sample(hg)
		for t < set.Horizon {
			tr.Events = append(tr.Events, Event{Start: t, Duration: duration.Sample(hg)})
			t += interarrival.Sample(hg)
		}
		set.Traces = append(set.Traces, tr)
	}
	return set, nil
}
