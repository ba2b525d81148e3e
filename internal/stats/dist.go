package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Distribution is a one-dimensional probability distribution over
// non-negative values. Implementations are immutable value types so
// they can be shared freely across goroutines; sampling draws from the
// caller-supplied RNG.
type Distribution interface {
	// Sample draws one value.
	Sample(g *RNG) float64
	// Mean returns the theoretical mean (math.Inf(1) if undefined).
	Mean() float64
	// Variance returns the theoretical variance (math.Inf(1) if
	// undefined or infinite).
	Variance() float64
	// String describes the distribution and its parameters.
	String() string
}

// CoV returns the coefficient of variation (stddev/mean) of d, or NaN
// when the mean is zero or either moment is undefined.
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests; its Mean and Variance calls back the moment tests
func CoV(d Distribution) float64 {
	m := d.Mean()
	v := d.Variance()
	if m == 0 || math.IsInf(m, 0) || math.IsInf(v, 0) {
		return math.NaN()
	}
	return math.Sqrt(v) / m
}

// Deterministic is a point mass at Value.
type Deterministic struct {
	Value float64
}

var _ Distribution = Deterministic{}

// NewDeterministic returns a point mass at v.
func NewDeterministic(v float64) Deterministic { return Deterministic{Value: v} }

// Sample implements Distribution.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// Variance implements Distribution.
func (d Deterministic) Variance() float64 { return 0 }

func (d Deterministic) String() string {
	return fmt.Sprintf("deterministic(%g)", d.Value)
}

// Exponential is the exponential distribution with rate Rate (mean
// 1/Rate). It models the paper's interruption inter-arrival times.
type Exponential struct {
	Rate float64
}

var _ Distribution = Exponential{}

// NewExponential returns an exponential distribution with the given
// rate. It returns an error if rate <= 0.
//
//lint:ignore deadcode unused library code: chaos's TestNetFaultsDelayCapped draws latency from it; ROADMAP item 14 replaces it
func NewExponential(rate float64) (Exponential, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("exponential rate must be positive and finite, got %g", rate)
	}
	return Exponential{Rate: rate}, nil
}

// ExponentialFromMean returns an exponential distribution with the
// given mean.
func ExponentialFromMean(mean float64) (Exponential, error) {
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return Exponential{}, fmt.Errorf("exponential mean must be positive and finite, got %g", mean)
	}
	return Exponential{Rate: 1 / mean}, nil
}

// Sample implements Distribution.
func (d Exponential) Sample(g *RNG) float64 { return g.ExpFloat64() / d.Rate }

// Mean implements Distribution.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

// Variance implements Distribution.
func (d Exponential) Variance() float64 { return 1 / (d.Rate * d.Rate) }

func (d Exponential) String() string {
	return fmt.Sprintf("exponential(rate=%g)", d.Rate)
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

var _ Distribution = Uniform{}

// NewUniform returns a uniform distribution on [lo, hi). It returns an
// error if hi < lo.
//
//lint:ignore deadcode unused library code: svc's TestPipelineChaosSoak draws latency from it; ROADMAP item 14 replaces it
func NewUniform(lo, hi float64) (Uniform, error) {
	if hi < lo || math.IsNaN(lo) || math.IsNaN(hi) {
		return Uniform{}, fmt.Errorf("uniform bounds must satisfy lo <= hi, got [%g, %g)", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample implements Distribution.
func (d Uniform) Sample(g *RNG) float64 { return d.Lo + (d.Hi-d.Lo)*g.Float64() }

// Mean implements Distribution.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Variance implements Distribution.
func (d Uniform) Variance() float64 {
	w := d.Hi - d.Lo
	return w * w / 12
}

func (d Uniform) String() string {
	return fmt.Sprintf("uniform[%g,%g)", d.Lo, d.Hi)
}

// LogNormal is the log-normal distribution: exp(Normal(Mu, Sigma^2)).
// It is the workhorse for SETI@home-like heavy-tailed interruption
// statistics because its mean and coefficient of variation can be set
// independently.
type LogNormal struct {
	Mu    float64 // mean of the underlying normal
	Sigma float64 // stddev of the underlying normal
}

var _ Distribution = LogNormal{}

// NewLogNormal returns a log-normal distribution with underlying
// normal parameters mu and sigma. It returns an error if sigma < 0.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if sigma < 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		return LogNormal{}, fmt.Errorf("lognormal sigma must be non-negative, got mu=%g sigma=%g", mu, sigma)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// LogNormalFromMeanCoV returns the log-normal distribution whose mean
// and coefficient of variation match the given targets. This is how
// the trace generator is calibrated against the paper's Table 1
// (e.g. MTBI mean 160290 s, CoV 4.376).
func LogNormalFromMeanCoV(mean, cov float64) (LogNormal, error) {
	if mean <= 0 || cov < 0 || math.IsNaN(mean) || math.IsNaN(cov) {
		return LogNormal{}, fmt.Errorf("lognormal requires mean > 0 and cov >= 0, got mean=%g cov=%g", mean, cov)
	}
	sigma2 := math.Log(1 + cov*cov)
	mu := math.Log(mean) - sigma2/2
	return LogNormal{Mu: mu, Sigma: math.Sqrt(sigma2)}, nil
}

// Sample implements Distribution.
func (d LogNormal) Sample(g *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*g.NormFloat64())
}

// Mean implements Distribution.
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Variance implements Distribution.
func (d LogNormal) Variance() float64 {
	s2 := d.Sigma * d.Sigma
	return math.Expm1(s2) * math.Exp(2*d.Mu+s2)
}

func (d LogNormal) String() string {
	return fmt.Sprintf("lognormal(mu=%g,sigma=%g)", d.Mu, d.Sigma)
}

// Weibull is the Weibull distribution with shape K and scale Lambda.
// Shape < 1 yields the decreasing hazard rates typical of host
// failures in volunteer-computing systems.
type Weibull struct {
	K      float64 // shape
	Lambda float64 // scale
}

var _ Distribution = Weibull{}

// NewWeibull returns a Weibull distribution. It returns an error
// unless both parameters are positive.
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests
func NewWeibull(shape, scale float64) (Weibull, error) {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) || math.IsNaN(scale) {
		return Weibull{}, fmt.Errorf("weibull requires positive shape and scale, got k=%g lambda=%g", shape, scale)
	}
	return Weibull{K: shape, Lambda: scale}, nil
}

// Sample implements Distribution via inverse-CDF.
func (d Weibull) Sample(g *RNG) float64 {
	u := g.Float64()
	// 1-u is uniform on (0,1]; avoid Log(0).
	return d.Lambda * math.Pow(-math.Log(1-u), 1/d.K)
}

// Mean implements Distribution.
func (d Weibull) Mean() float64 { return d.Lambda * math.Gamma(1+1/d.K) }

// Variance implements Distribution.
func (d Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/d.K)
	g2 := math.Gamma(1 + 2/d.K)
	return d.Lambda * d.Lambda * (g2 - g1*g1)
}

func (d Weibull) String() string {
	return fmt.Sprintf("weibull(k=%g,lambda=%g)", d.K, d.Lambda)
}

// Pareto is the (type I) Pareto distribution with minimum Xm and tail
// index Alpha. Alpha <= 1 has infinite mean; Alpha <= 2 has infinite
// variance.
type Pareto struct {
	Xm    float64 // scale (minimum value)
	Alpha float64 // tail index
}

var _ Distribution = Pareto{}

// NewPareto returns a Pareto distribution. It returns an error unless
// both parameters are positive.
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests
func NewPareto(xm, alpha float64) (Pareto, error) {
	if xm <= 0 || alpha <= 0 || math.IsNaN(xm) || math.IsNaN(alpha) {
		return Pareto{}, fmt.Errorf("pareto requires positive xm and alpha, got xm=%g alpha=%g", xm, alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// Sample implements Distribution via inverse-CDF.
func (d Pareto) Sample(g *RNG) float64 {
	u := g.Float64()
	return d.Xm / math.Pow(1-u, 1/d.Alpha)
}

// Mean implements Distribution.
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}

// Variance implements Distribution.
func (d Pareto) Variance() float64 {
	if d.Alpha <= 2 {
		return math.Inf(1)
	}
	a := d.Alpha
	return d.Xm * d.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

func (d Pareto) String() string {
	return fmt.Sprintf("pareto(xm=%g,alpha=%g)", d.Xm, d.Alpha)
}

// Empirical resamples uniformly from a fixed set of observations, e.g.
// interruption durations lifted from a failure trace.
type Empirical struct {
	values []float64
	mean   float64
	vari   float64
}

var _ Distribution = (*Empirical)(nil)

// ErrNoObservations is returned when an empirical distribution is
// constructed from an empty sample.
var ErrNoObservations = errors.New("empirical distribution requires at least one observation")

// NewEmpirical returns a distribution that resamples from values. The
// slice is copied.
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests
func NewEmpirical(values []float64) (*Empirical, error) {
	if len(values) == 0 {
		return nil, ErrNoObservations
	}
	vs := make([]float64, len(values))
	copy(vs, values)
	var s Summary
	for _, v := range vs {
		s.Add(v)
	}
	return &Empirical{values: vs, mean: s.Mean(), vari: s.Variance()}, nil
}

// Sample implements Distribution.
func (d *Empirical) Sample(g *RNG) float64 {
	return d.values[g.IntN(len(d.values))]
}

// Mean implements Distribution.
func (d *Empirical) Mean() float64 { return d.mean }

// Variance implements Distribution.
func (d *Empirical) Variance() float64 { return d.vari }

// Len returns the number of underlying observations.
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests
func (d *Empirical) Len() int { return len(d.values) }

// Quantile returns the q-th empirical quantile (0 <= q <= 1).
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests
func (d *Empirical) Quantile(q float64) float64 {
	sorted := make([]float64, len(d.values))
	copy(sorted, d.values)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func (d *Empirical) String() string {
	return fmt.Sprintf("empirical(n=%d,mean=%g)", len(d.values), d.mean)
}

// Shifted adds a constant offset to another distribution, clamping at
// zero. Useful for minimum repair times.
type Shifted struct {
	Base   Distribution
	Offset float64
}

var _ Distribution = Shifted{}

// Sample implements Distribution.
func (d Shifted) Sample(g *RNG) float64 {
	v := d.Base.Sample(g) + d.Offset
	if v < 0 {
		return 0
	}
	return v
}

// Mean implements Distribution (ignores the zero clamp, which is exact
// whenever Base is non-negative and Offset >= 0).
func (d Shifted) Mean() float64 { return d.Base.Mean() + d.Offset }

// Variance implements Distribution.
func (d Shifted) Variance() float64 { return d.Base.Variance() }

func (d Shifted) String() string {
	return fmt.Sprintf("shifted(%v,+%g)", d.Base, d.Offset)
}
