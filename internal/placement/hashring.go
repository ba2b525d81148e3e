package placement

import (
	"fmt"
	"math"
	"slices"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
)

// Mode names a placement strategy in configuration ("-placement" style
// flags, NameNodeConfig, bench specs).
type Mode string

const (
	// ModeRandom is stock HDFS: uniformly random replica holders.
	ModeRandom Mode = "random"
	// ModeAdapt is the paper's Algorithm 1 (availability-weighted hash
	// table with randomized lookup).
	ModeAdapt Mode = "adapt"
	// ModeNaive is the §V-C strawman (steady-state availability
	// weights).
	ModeNaive Mode = "naive"
	// ModeHashring is the deterministic consistent-hash ring: token
	// counts follow the ADAPT efficiencies 1/E[T], block holders are
	// pure hashes of (file, block index), and tenants are confined to
	// shuffled size-S subsets of the ring.
	ModeHashring Mode = "hashring"
)

// BuildAvailabilityRing builds the consistent-hash ring for a cluster:
// per-node token counts proportional to the ADAPT efficiency 1/E[T_i]
// at task length gamma, so more-available nodes own proportionally
// more of the key space — the ring-shaped analogue of Algorithm 1's
// weight intervals.
func BuildAvailabilityRing(c *cluster.Cluster, gamma float64, tokensPerNode int) (*shard.Ring, error) {
	if c == nil || c.Len() == 0 {
		return nil, cluster.ErrNoNodes
	}
	if gamma <= 0 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		return nil, fmt.Errorf("placement: hashring gamma must be positive and finite, got %g", gamma)
	}
	return shard.BuildRing(c.Efficiencies(gamma), tokensPerNode)
}

// Hashring is the ModeHashring policy for one file: replica holders
// are ring lookups on hashed (file, block-index) keys, restricted to
// the owning tenant's shuffled S-set. Unlike the randomized policies
// it is a pure function of (ring, file, tenant, S, liveness) — two
// NameNodes with the same view agree on every holder without
// coordination, and re-placing a file after recovery reproduces the
// original layout.
type Hashring struct {
	ring *shard.Ring
	file string
	// tenant and shardSize define the S-set; shardSize <= 0 disables
	// shuffling (whole ring eligible).
	tenant    string
	shardSize int
	// live optionally filters nodes (nil = all ring nodes eligible).
	live func(int) bool
}

var _ Policy = (*Hashring)(nil)

// NewHashring builds the policy for one file. tenant is the file's
// owning tenant ("" = default tenant, which still gets its own
// shuffled S-set when s > 0).
func NewHashring(ring *shard.Ring, file, tenant string, s int, live func(int) bool) (*Hashring, error) {
	if ring == nil {
		return nil, fmt.Errorf("placement: hashring: %w", ErrNoWeight)
	}
	return &Hashring{ring: ring, file: file, tenant: tenant, shardSize: s, live: live}, nil
}

// Name implements Policy.
func (h *Hashring) Name() string { return string(ModeHashring) }

// NewPlacer implements Policy. The tenant's S-set is resolved once per
// file placement; the rng is accepted for interface compatibility and
// never drawn from.
func (h *Hashring) NewPlacer(m, k int, g *stats.RNG) (Placer, error) {
	if err := validateCommon(m, k, h.ring.Nodes(), g); err != nil {
		return nil, err
	}
	set := h.ring.TenantSet(h.tenant, h.shardSize, h.live)
	if len(set) < k {
		return nil, fmt.Errorf("%w: tenant %q has %d eligible nodes, need %d",
			ErrTooManyReplicas, h.tenant, len(set), k)
	}
	member := make(map[int]bool, len(set))
	for _, n := range set {
		member[n] = true
	}
	return &ringPlacer{ring: h.ring, file: h.file, k: k, member: member}, nil
}

type ringPlacer struct {
	ring   *shard.Ring
	file   string
	k      int
	next   int // block index of the next PlaceBlock call
	member map[int]bool
}

// PlaceBlock implements Placer: the k replica holders of block b are
// the first k distinct S-set members clockwise from BlockKey(file, b).
func (p *ringPlacer) PlaceBlock(dst []cluster.NodeID) ([]cluster.NodeID, error) {
	idx := p.next
	p.next++
	got := p.ring.Lookup(shard.BlockKey(p.file, idx), p.k, func(n int) bool { return p.member[n] })
	if len(got) < p.k {
		return nil, fmt.Errorf("%w: block %d found %d of %d holders", ErrNoCapacity, idx, len(got), p.k)
	}
	dst = slices.Grow(dst, p.k)
	for _, n := range got {
		dst = append(dst, cluster.NodeID(n))
	}
	return dst, nil
}

func (p *ringPlacer) nodes() int { return p.ring.Nodes() }
