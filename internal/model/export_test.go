package model

import "math"

// Paper eq. (2) and the per-attempt success probability behind eq. (4).
// Eq. (5) (ExpectedTaskTime) is what placement weighs; the tests
// check that these compose to it.

// ExpectedRework returns E[X] (paper eq. 2): the mean amount of work
// lost per failed attempt of a task of length gamma. For a dedicated
// host it returns 0 (there are no failed attempts). As λ→0 the limit
// is γ/2: an interruption that does occur is uniform over the attempt.
func (a Availability) ExpectedRework(gamma float64) float64 {
	if gamma <= 0 || a.Lambda == 0 {
		return 0
	}
	gl := gamma * a.Lambda
	// 1/λ + γ/(1−e^{γλ}) = 1/λ − γ/expm1(γλ), computed stably.
	return 1/a.Lambda - gamma/math.Expm1(gl)
}

// ProbCompleteWithoutInterruption returns e^{−γλ}, the probability a
// single attempt of length gamma finishes before the next
// interruption.
func (a Availability) ProbCompleteWithoutInterruption(gamma float64) float64 {
	if gamma <= 0 || a.Lambda == 0 {
		return 1
	}
	return math.Exp(-gamma * a.Lambda)
}
