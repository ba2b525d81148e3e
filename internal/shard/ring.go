package shard

import (
	"fmt"
	"math"
	"sort"

	"github.com/adaptsim/adapt/internal/stats"
)

// DefaultTokensPerNode is the token budget a node of average weight
// receives. More tokens smooth the ownership distribution (χ² against
// uniform shrinks as ~1/tokens) at linear memory cost; 64 keeps a
// 256-node ring at ~16k tokens.
const DefaultTokensPerNode = 64

// maxTokenFactor caps any single node's token count at this multiple
// of the per-node budget, bounding ring memory when one node's weight
// dwarfs the build-time mean.
const maxTokenFactor = 64

// Salts separating the ring's hash domains: token positions, tenant
// walk origins, and block keys must never collide structurally.
const (
	tokenSalt  = 0x61646170745f746b // "adapt_tk"
	tenantSalt = 0x61646170745f746e // "adapt_tn"
	blockSalt  = 0x61646170745f626b // "adapt_bk"
)

// ringToken is one position on the ring owned by a node.
type ringToken struct {
	pos  uint64
	node int32
}

// Ring is a deterministic consistent-hash ring: each node holds a
// token count proportional to its weight (1/E[T] under ADAPT), token
// positions are pure hashes of (node, index), and a key is owned by
// the first tokens clockwise from its hash. Rings are immutable, so
// lookups never race with a rebuild and a snapshot can be published
// through an atomic pointer.
type Ring struct {
	tokens        []ringToken
	counts        []int
	unit          float64 // weight that earns tokensPerNode tokens
	tokensPerNode int
}

// BuildRing constructs a ring over len(weights) nodes. weights[i] <= 0
// (or non-finite) excludes node i from the ring. tokensPerNode <= 0
// selects DefaultTokensPerNode. The token scale is normalized against
// the mean positive weight.
func BuildRing(weights []float64, tokensPerNode int) (*Ring, error) {
	if tokensPerNode <= 0 {
		tokensPerNode = DefaultTokensPerNode
	}
	var sum float64
	pos := 0
	for _, w := range weights {
		if usableWeight(w) {
			sum += w
			pos++
		}
	}
	if pos == 0 {
		return nil, fmt.Errorf("%w: %d nodes", ErrNoTokens, len(weights))
	}
	r := &Ring{
		counts:        make([]int, len(weights)),
		unit:          sum / float64(pos),
		tokensPerNode: tokensPerNode,
	}
	total := 0
	for i, w := range weights {
		r.counts[i] = r.tokenCount(w)
		total += r.counts[i]
	}
	r.tokens = make([]ringToken, 0, total)
	for i := range weights {
		r.tokens = append(r.tokens, nodeTokens(i, r.counts[i])...)
	}
	sortTokens(r.tokens)
	return r, nil
}

func usableWeight(w float64) bool {
	return w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w)
}

// tokenCount maps a weight to a token count against the ring's unit:
// proportional, at least 1 for any positive weight (so a barely-alive
// node still owns keys), capped to bound memory.
func (r *Ring) tokenCount(w float64) int {
	if !usableWeight(w) {
		return 0
	}
	n := int(float64(r.tokensPerNode)*w/r.unit + 0.5)
	if n < 1 {
		n = 1
	}
	if max := r.tokensPerNode * maxTokenFactor; n > max {
		n = max
	}
	return n
}

// nodeTokens generates node i's token positions: pure hashes of
// (node, index), independent of every other node and of the weight
// that chose the count — so growing a node's count from 3 to 4 keeps
// tokens 0..2 exactly where they were.
func nodeTokens(node, count int) []ringToken {
	ts := make([]ringToken, count)
	for j := 0; j < count; j++ {
		ts[j] = ringToken{pos: stats.DeriveSeed(tokenSalt, uint64(node), uint64(j)), node: int32(node)}
	}
	sortTokens(ts)
	return ts
}

func sortTokens(ts []ringToken) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].pos != ts[j].pos {
			return ts[i].pos < ts[j].pos
		}
		return ts[i].node < ts[j].node
	})
}

// Nodes returns the node count the ring was built over.
func (r *Ring) Nodes() int { return len(r.counts) }

// TokenCount returns node i's token count (0 when excluded).
//
//lint:ignore deadcode accessor for unexported state: placement's TestBuildAvailabilityRingWeightsFollowEfficiency checks token counts follow the weights
func (r *Ring) TokenCount(i int) int {
	if i < 0 || i >= len(r.counts) {
		return 0
	}
	return r.counts[i]
}

// Lookup walks clockwise from key and returns the first n distinct
// nodes accepted by eligible (nil accepts all). Fewer than n are
// returned when the ring holds fewer distinct eligible nodes — the
// caller decides whether a short set is an error.
func (r *Ring) Lookup(key uint64, n int, eligible func(int) bool) []int {
	if n <= 0 || len(r.tokens) == 0 {
		return nil
	}
	start := sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i].pos >= key })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for off := 0; off < len(r.tokens); off++ {
		t := r.tokens[(start+off)%len(r.tokens)]
		node := int(t.node)
		if seen[node] {
			continue
		}
		seen[node] = true
		if eligible != nil && !eligible(node) {
			continue
		}
		out = append(out, node)
		if len(out) == n {
			break
		}
	}
	return out
}

// TenantSet returns tenant's shard set: the first s distinct eligible
// nodes clockwise from the tenant's hash — Pyroscope-style shard
// shuffling without an RNG. Properties the tests pin down:
//
//   - deterministic: a pure function of (tenant, ring, eligibility);
//   - isolated: a node leaving outside the set leaves the set
//     untouched, and a member leaving is replaced by exactly one new
//     node (the next distinct one on the walk), so repair traffic on
//     a death is O(S), never O(cluster);
//   - s <= 0 (or s >= eligible nodes) selects the whole eligible
//     ring — tenants too big to isolate degrade to global placement.
//
// The result is sorted by node id; membership, not order, is the
// contract.
func (r *Ring) TenantSet(tenant string, s int, eligible func(int) bool) []int {
	if s <= 0 {
		s = len(r.counts)
	}
	start := stats.DeriveSeed(tenantSalt, stats.HashLabel(tenant))
	set := r.Lookup(start, s, eligible)
	sort.Ints(set)
	return set
}

// BlockKey hashes a (file, block-index) coordinate onto the ring's
// key space.
func BlockKey(file string, index int) uint64 {
	return stats.DeriveSeed(blockSalt, stats.HashLabel(file), uint64(index))
}
