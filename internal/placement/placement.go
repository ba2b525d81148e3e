// Package placement implements the paper's primary contribution: data
// block placement policies for MapReduce on non-dedicated clusters.
//
// Three policies are provided:
//
//   - Random — the stock HDFS behaviour: each replica goes to a
//     uniformly random node (§II-B, "data blocks are dispatched
//     randomly onto the participating nodes").
//   - ADAPT — Algorithm 1: nodes are weighted by their efficiency
//     1/E[T_i] from the availability model, a block→node hash table is
//     built (buildHashTable) and each block is placed by randomized
//     lookup with chained collision resolution (dataPlacement). The
//     table is stored as one span per node — its interval on the
//     block-key line [0, m) — and a key's chain is the run of spans
//     that overlap it, so it costs O(n) to build, not O(m).
//   - Naive — the strawman evaluated in §V-C: nodes weighted by their
//     steady-state availability (MTBI − μ)/MTBI.
//
// All policies honor the paper's per-node capacity threshold
// m(k+1)/n (§IV-C): once a node holds that many blocks it is excluded
// from further placement and the remaining weight is renormalized.
package placement

import (
	"errors"
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// Policy constructs placers for files of m blocks with k replicas.
// Implementations are stateless and reusable; each Placer carries the
// per-file placement state (the paper's hash table lives only as long
// as the distribution of one file's blocks, §IV-B1).
type Policy interface {
	// Name identifies the policy in reports ("random", "adapt",
	// "naive").
	Name() string
	// NewPlacer prepares placement of m blocks with k replicas each.
	NewPlacer(m, k int, g *stats.RNG) (Placer, error)
}

// Placer assigns the blocks of a single file.
type Placer interface {
	// PlaceBlock chooses the k replica holders for the next block and
	// appends them to dst, which it returns as append does: the
	// holders are the last k entries of the result, and a nil dst
	// gets a fresh slice of its own. On error dst's contents are
	// unspecified.
	PlaceBlock(dst []cluster.NodeID) ([]cluster.NodeID, error)
}

// sized is implemented by the placers of this package: nodes is the
// cluster size the placer draws from.
type sized interface{ nodes() int }

// Errors shared by the policies.
var (
	ErrBadBlockCount   = errors.New("placement: block count must be positive")
	ErrBadReplicas     = errors.New("placement: replica count must be >= 1")
	ErrTooManyReplicas = errors.New("placement: more replicas than nodes")
	ErrNoCapacity      = errors.New("placement: all nodes saturated")
	ErrNoWeight        = errors.New("placement: no node has positive weight")
	ErrNilRNG          = errors.New("placement: rng must not be nil")
)

// Assignment is a complete block→replica-holders mapping for one file.
type Assignment struct {
	// Replicas[b] lists the nodes holding block b.
	Replicas [][]cluster.NodeID
	// Nodes is the cluster size the assignment was made against.
	Nodes int
}

// PlaceAll drives a policy over all m blocks and returns the full
// assignment. Every block's holders are cut from one array of m·k
// entries, each capped at its own length so that appending to one
// block's holders cannot write into the next block's. Nodes is set
// when the placer is one of this package's.
func PlaceAll(p Policy, m, k int, g *stats.RNG) (*Assignment, error) {
	placer, err := p.NewPlacer(m, k, g)
	if err != nil {
		return nil, fmt.Errorf("placement: %s: %w", p.Name(), err)
	}
	a := &Assignment{Replicas: make([][]cluster.NodeID, m)}
	if sp, ok := placer.(sized); ok {
		a.Nodes = sp.nodes()
	}
	all := make([]cluster.NodeID, 0, m*k)
	for b := 0; b < m; b++ {
		first := len(all)
		if all, err = placer.PlaceBlock(all); err != nil {
			return nil, fmt.Errorf("placement: %s: block %d: %w", p.Name(), b, err)
		}
		a.Replicas[b] = all[first:len(all):len(all)]
	}
	return a, nil
}

// BlockCount returns the number of blocks placed.
func (a *Assignment) BlockCount() int { return len(a.Replicas) }

// CountPerNode returns how many block replicas each node holds. The
// slice length is the max node id + 1 unless Nodes is set.
//
//lint:ignore deadcode invariant oracle: hadoopsim's invariant tests and package adapt's ExampleNewAdaptPolicy count replicas per node
func (a *Assignment) CountPerNode() []int {
	n := a.Nodes
	for _, hs := range a.Replicas {
		for _, h := range hs {
			if int(h)+1 > n {
				n = int(h) + 1
			}
		}
	}
	counts := make([]int, n)
	for _, hs := range a.Replicas {
		for _, h := range hs {
			counts[h]++
		}
	}
	return counts
}

// PrimaryCountPerNode counts only first replicas per node.
//
//lint:ignore deadcode unused library code: ROADMAP item 18's decision recorder sums planned finish over primary blocks
func (a *Assignment) PrimaryCountPerNode() []int {
	n := a.Nodes
	for _, hs := range a.Replicas {
		if len(hs) > 0 && int(hs[0])+1 > n {
			n = int(hs[0]) + 1
		}
	}
	counts := make([]int, n)
	for _, hs := range a.Replicas {
		if len(hs) > 0 {
			counts[hs[0]]++
		}
	}
	return counts
}

// Threshold returns the paper's per-node block cap m(k+1)/n (§IV-C),
// rounded up and at least k so that tiny files remain placeable.
func Threshold(m, k, n int) int {
	if m <= 0 || k <= 0 || n <= 0 {
		return 0
	}
	limit := (m*(k+1) + n - 1) / n
	if limit < k {
		limit = k
	}
	return limit
}

// validateCommon checks the (m, k, n, rng) arguments shared by all
// policies.
func validateCommon(m, k, n int, g *stats.RNG) error {
	if m <= 0 {
		return fmt.Errorf("%w: %d", ErrBadBlockCount, m)
	}
	if k < 1 {
		return fmt.Errorf("%w: %d", ErrBadReplicas, k)
	}
	if k > n {
		return fmt.Errorf("%w: k=%d n=%d", ErrTooManyReplicas, k, n)
	}
	if g == nil {
		return ErrNilRNG
	}
	return nil
}
