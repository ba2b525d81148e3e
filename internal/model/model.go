// Package model implements the analytical availability model of the
// ADAPT paper (§III): the expected completion time of a MapReduce task
// of failure-free length γ on a host whose interruptions arrive as a
// Poisson process with rate λ (the inverse of the mean time between
// interruptions, MTBI) and whose recovery times follow a general
// distribution with mean μ, serviced FCFS so that each host behaves as
// an M/G/1 queue of interruption events.
//
// The model yields (paper equation numbers in parentheses):
//
//	E[X] = 1/λ + γ/(1 − e^{γλ})             mean rework per failed attempt (2)
//	E[Y] = μ/(1 − λμ)                        mean downtime per interruption (3)
//	E[S] = e^{γλ} − 1                        mean number of failed attempts (4)
//	E[T] = (e^{γλ} − 1)(1/λ + μ/(1 − λμ))    mean task completion time (5)
//
// Equation (5) is the closed form of γ + E[S]·(E[X] + E[Y]).
//
// The placement algorithm weighs each node by its efficiency 1/E[T].
package model

import (
	"errors"
	"fmt"
	"math"
)

// Stability errors returned by Validate and the E* methods' inputs.
var (
	// ErrUnstable indicates λμ >= 1: interruptions arrive faster than
	// they can be serviced, so the M/G/1 downtime (and hence E[T])
	// diverges.
	ErrUnstable = errors.New("model: unstable interruption process (lambda*mu >= 1)")
	// ErrNegativeParam indicates a negative rate, repair time, or task
	// length.
	ErrNegativeParam = errors.New("model: parameters must be non-negative")
)

// Availability describes one host's interruption behaviour: Poisson
// interruption arrivals with rate Lambda (1/MTBI, in 1/seconds) and
// mean recovery time Mu (seconds). The zero value describes a fully
// dedicated (never interrupted) host.
type Availability struct {
	Lambda float64 // interruption arrival rate, 1/MTBI (1/s)
	Mu     float64 // mean interruption service (recovery) time (s)
}

// FromMTBI builds an Availability from a mean time between
// interruptions and a mean recovery time. mtbi <= 0 is treated as a
// dedicated host (Lambda = 0).
func FromMTBI(mtbi, mu float64) Availability {
	if mtbi <= 0 || math.IsInf(mtbi, 1) {
		return Availability{Lambda: 0, Mu: mu}
	}
	return Availability{Lambda: 1 / mtbi, Mu: mu}
}

// MTBI returns the mean time between interruptions (math.Inf(1) for a
// dedicated host).
func (a Availability) MTBI() float64 {
	if a.Lambda == 0 {
		return math.Inf(1)
	}
	return 1 / a.Lambda
}

// Dedicated reports whether the host is never interrupted.
func (a Availability) Dedicated() bool { return a.Lambda == 0 }

// Utilization returns λμ, the fraction of time the host's repair
// process is busy. The model requires Utilization < 1.
func (a Availability) Utilization() float64 { return a.Lambda * a.Mu }

// SteadyStateAvailability returns the long-run fraction of time the
// host is up under the M/G/1 interruption model: 1 − λμ. This is also
// the weight used by the paper's naive placement strategy,
// (MTBI − μ)/MTBI evaluated with MTBI = 1/λ.
func (a Availability) SteadyStateAvailability() float64 {
	u := 1 - a.Utilization()
	if u < 0 {
		return 0
	}
	return u
}

// Validate checks that the parameters are physical and the M/G/1
// process is stable.
func (a Availability) Validate() error {
	if a.Lambda < 0 || a.Mu < 0 || math.IsNaN(a.Lambda) || math.IsNaN(a.Mu) {
		return fmt.Errorf("%w: lambda=%g mu=%g", ErrNegativeParam, a.Lambda, a.Mu)
	}
	if a.Utilization() >= 1 {
		return fmt.Errorf("%w: lambda=%g mu=%g (utilization %.3f)",
			ErrUnstable, a.Lambda, a.Mu, a.Utilization())
	}
	return nil
}

func (a Availability) String() string {
	if a.Dedicated() {
		return "availability(dedicated)"
	}
	return fmt.Sprintf("availability(MTBI=%gs, mu=%gs)", a.MTBI(), a.Mu)
}

// ExpectedDowntime returns E[Y] (paper eq. 3): the mean downtime a
// task endures per interruption under M/G/1 FCFS recovery,
// μ/(1 − λμ). It returns +Inf when the process is unstable.
//
//lint:ignore deadcode paper eq. (3): package adapt's ExampleAvailability prints it
func (a Availability) ExpectedDowntime() float64 {
	u := a.Utilization()
	if u >= 1 {
		return math.Inf(1)
	}
	return a.Mu / (1 - u)
}

// ExpectedAttempts returns E[S] (paper eq. 4): the mean number of
// failed attempts before a task of length gamma completes,
// e^{γλ} − 1.
//
//lint:ignore deadcode paper eq. (4): package adapt's ExampleAvailability prints it
func (a Availability) ExpectedAttempts(gamma float64) float64 {
	if gamma <= 0 || a.Lambda == 0 {
		return 0
	}
	return math.Expm1(gamma * a.Lambda)
}

// ExpectedTaskTime returns E[T] (paper eq. 5): the mean completion
// time of a task of failure-free length gamma,
// (e^{γλ} − 1)(1/λ + μ/(1 − λμ)). For a dedicated host it returns
// gamma. It returns +Inf for an unstable process.
func (a Availability) ExpectedTaskTime(gamma float64) float64 {
	if gamma <= 0 {
		return 0
	}
	if a.Lambda == 0 {
		return gamma
	}
	u := a.Utilization()
	if u >= 1 {
		return math.Inf(1)
	}
	return math.Expm1(gamma*a.Lambda) * (1/a.Lambda + a.Mu/(1-u))
}

// Efficiency returns 1/E[T], the rate at which the host completes
// tasks of length gamma. This is the weight ADAPT assigns to the host
// in the placement hash table. It returns 0 when E[T] diverges.
func (a Availability) Efficiency(gamma float64) float64 {
	et := a.ExpectedTaskTime(gamma)
	if math.IsInf(et, 1) || et <= 0 {
		if et == 0 {
			return math.Inf(1)
		}
		return 0
	}
	return 1 / et
}

// SlowdownFactor returns E[T]/γ, how many times slower the host is
// than a dedicated one for tasks of length gamma.
func (a Availability) SlowdownFactor(gamma float64) float64 {
	if gamma <= 0 {
		return 1
	}
	return a.ExpectedTaskTime(gamma) / gamma
}
