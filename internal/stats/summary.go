package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming summary statistics (count, mean,
// variance, min, max) using Welford's online algorithm. The zero value
// is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	s.sum += v
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the sample mean, or NaN with no observations.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the unbiased sample variance, or NaN with fewer
// than two observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the sample coefficient of variation (stddev/mean), or
// NaN when undefined.
func (s *Summary) CoV() float64 {
	m := s.Mean()
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return s.StdDev() / m
}

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Min returns the smallest observation, or NaN with no observations.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN with no observations.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g cov=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.CoV(), s.Min(), s.Max())
}

// Quantile returns the q-th quantile (0 <= q <= 1) of values using
// linear interpolation between order statistics. It returns NaN for an
// empty slice and does not modify values.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of values, or NaN for an empty
// slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
