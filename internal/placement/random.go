package placement

import (
	"slices"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/stats"
)

// Random is the stock HDFS placement: when a block arrives, the
// NameNode generates a random integer r in [0, n) and stores the block
// on node r (§III-C). Additional replicas go to further distinct
// uniform choices. The paper's capacity threshold still applies so
// that comparisons against ADAPT are storage-fair.
type Random struct {
	// Cluster supplies the node population.
	Cluster *cluster.Cluster
	// DisableThreshold turns off the m(k+1)/n cap (pure stock
	// behaviour). The default (false) applies the cap, which for the
	// uniform policy almost never binds.
	DisableThreshold bool
}

var _ Policy = (*Random)(nil)

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// NewPlacer implements Policy.
func (r *Random) NewPlacer(m, k int, g *stats.RNG) (Placer, error) {
	n := r.Cluster.Len()
	if err := validateCommon(m, k, n, g); err != nil {
		return nil, err
	}
	limit := 0
	if !r.DisableThreshold {
		limit = Threshold(m, k, n)
	}
	return &randomPlacer{n: n, k: k, limit: limit, counts: make([]int, n), g: g}, nil
}

type randomPlacer struct {
	n      int
	k      int
	limit  int // 0 means unbounded
	counts []int
	g      *stats.RNG
}

func (p *randomPlacer) nodes() int { return p.n }

// eligible reports whether node c may take the next replica of a block
// already held by used.
func (p *randomPlacer) eligible(c int, used []cluster.NodeID) bool {
	return !slices.Contains(used, cluster.NodeID(c)) && (p.limit <= 0 || p.counts[c] < p.limit)
}

// PlaceBlock implements Placer: k distinct uniform draws among nodes
// with remaining capacity.
func (p *randomPlacer) PlaceBlock(dst []cluster.NodeID) ([]cluster.NodeID, error) {
	dst = slices.Grow(dst, p.k)
	first := len(dst)
	for len(dst)-first < p.k {
		used := dst[first:]
		candidate := -1
		// Rejection sampling with a bounded number of tries keeps the
		// common case O(1); fall back to an explicit scan when the
		// cluster is nearly saturated.
		const tries = 16
		for t := 0; t < tries; t++ {
			c := p.g.IntN(p.n)
			if !p.eligible(c, used) {
				continue
			}
			candidate = c
			break
		}
		if candidate < 0 {
			// Explicit scan for any eligible node, chosen uniformly.
			idx, seen := -1, 0
			for c := 0; c < p.n; c++ {
				if !p.eligible(c, used) {
					continue
				}
				seen++
				// Reservoir sampling over eligible nodes.
				if p.g.IntN(seen) == 0 {
					idx = c
				}
			}
			if idx < 0 {
				return nil, ErrNoCapacity
			}
			candidate = idx
		}
		p.counts[candidate]++
		dst = append(dst, cluster.NodeID(candidate))
	}
	return dst, nil
}
