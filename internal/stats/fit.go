package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CDF returns the cumulative distribution function of the supported
// analytic distributions, used for goodness-of-fit testing. It returns
// an error for distribution types without a closed-form CDF here.
func CDF(d Distribution) (func(float64) float64, error) {
	switch v := d.(type) {
	case Exponential:
		return func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return -math.Expm1(-v.Rate * x)
		}, nil
	case LogNormal:
		return func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return 0.5 * math.Erfc(-(math.Log(x)-v.Mu)/(v.Sigma*math.Sqrt2))
		}, nil
	case Weibull:
		return func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return -math.Expm1(-math.Pow(x/v.Lambda, v.K))
		}, nil
	case Pareto:
		return func(x float64) float64 {
			if x <= v.Xm {
				return 0
			}
			return 1 - math.Pow(v.Xm/x, v.Alpha)
		}, nil
	case Uniform:
		return func(x float64) float64 {
			if x <= v.Lo {
				return 0
			}
			if x >= v.Hi {
				return 1
			}
			return (x - v.Lo) / (v.Hi - v.Lo)
		}, nil
	case Deterministic:
		return func(x float64) float64 {
			if x < v.Value {
				return 0
			}
			return 1
		}, nil
	default:
		return nil, fmt.Errorf("stats: no closed-form CDF for %T", d)
	}
}

// KSStatistic computes the Kolmogorov–Smirnov statistic
// D = sup |F_n(x) − F(x)| between a sample's empirical CDF and the
// given analytic CDF. The sample is not modified.
func KSStatistic(sample []float64, cdf func(float64) float64) (float64, error) {
	if len(sample) == 0 {
		return 0, errors.New("stats: KS statistic needs a non-empty sample")
	}
	if cdf == nil {
		return 0, errors.New("stats: KS statistic needs a CDF")
	}
	xs := make([]float64, len(sample))
	copy(xs, sample)
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d, nil
}

// KSCritical returns the approximate critical value of the KS
// statistic at significance alpha ∈ {0.10, 0.05, 0.01} for sample
// size n (asymptotic formula c(α)/√n).
func KSCritical(n int, alpha float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("stats: sample size must be positive, got %d", n)
	}
	var c float64
	switch {
	case math.Abs(alpha-0.10) < 1e-9:
		c = 1.224
	case math.Abs(alpha-0.05) < 1e-9:
		c = 1.358
	case math.Abs(alpha-0.01) < 1e-9:
		c = 1.628
	default:
		return 0, fmt.Errorf("stats: unsupported significance %g (use 0.10, 0.05, 0.01)", alpha)
	}
	return c / math.Sqrt(float64(n)), nil
}

// FitLogNormal estimates log-normal parameters from a positive sample
// by method of moments on the logs (the MLE for a log-normal).
func FitLogNormal(sample []float64) (LogNormal, error) {
	if len(sample) < 2 {
		return LogNormal{}, errors.New("stats: lognormal fit needs at least two observations")
	}
	var s Summary
	for _, x := range sample {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return LogNormal{}, fmt.Errorf("stats: lognormal fit requires positive finite values, got %g", x)
		}
		s.Add(math.Log(x))
	}
	return NewLogNormal(s.Mean(), s.StdDev())
}

// FitExponential estimates the exponential rate from a positive
// sample (MLE: 1/mean).
//
//lint:ignore deadcode unused library code: ROADMAP item 14 deletes it with its tests
func FitExponential(sample []float64) (Exponential, error) {
	if len(sample) == 0 {
		return Exponential{}, errors.New("stats: exponential fit needs observations")
	}
	var s Summary
	for _, x := range sample {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Exponential{}, fmt.Errorf("stats: exponential fit requires non-negative finite values, got %g", x)
		}
		s.Add(x)
	}
	if s.Mean() <= 0 {
		return Exponential{}, errors.New("stats: exponential fit requires a positive mean")
	}
	return ExponentialFromMean(s.Mean())
}
