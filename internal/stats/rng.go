// Package stats provides the deterministic random-number machinery,
// probability distributions, and summary statistics shared by every
// stochastic component of the ADAPT reproduction.
//
// All randomness in the repository flows through an explicitly seeded
// *RNG so that experiments are reproducible run-to-run: the same seed
// always yields the same placement decisions, interruption schedules,
// and simulation outcomes.
package stats

import (
	//lint:ignore determinism this is the sanctioned wrapper: RNG's seeded PCG is the one place math/rand/v2 may enter the seeded scopes
	"math/rand/v2"
	"sync/atomic"
)

// RNG is a seeded pseudo-random number generator. It wraps a PCG source
// from math/rand/v2 and adds stream splitting so that independent
// components (placement, interruption injection, workload generation)
// can each consume their own reproducible stream.
//
// The sampling methods are not safe for concurrent use. Split is:
// concurrent workers (e.g. the NameNode's parallel repair scan) may
// share one parent and derive private child streams from it, though
// which child a given worker receives then depends on scheduling
// order — single-threaded callers keep full sequential determinism.
type RNG struct {
	r *rand.Rand
	// seed words retained so Split can derive child streams
	// deterministically from the parent's state.
	hi, lo uint64
	splits atomic.Uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs built from the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return newRNG(seed, 0x9e3779b97f4a7c15)
}

func newRNG(hi, lo uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Split derives a child RNG whose stream is independent of (but fully
// determined by) the parent's seed and the number of prior splits.
// Splitting does not perturb the parent's own stream.
func (g *RNG) Split() *RNG {
	n := g.splits.Add(1)
	// Mix the split counter into the seed words with odd constants so
	// consecutive children land far apart in the PCG state space.
	return newRNG(
		g.hi^(n*0xbf58476d1ce4e5b9),
		g.lo+n*0x94d049bb133111eb,
	)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0,
// matching math/rand/v2 semantics.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
