package shard

import (
	"errors"
	"fmt"
	"testing"

	"github.com/adaptsim/adapt/internal/stats"
)

// sampleKeys returns K deterministic, well-mixed ring keys.
func sampleKeys(k int) []uint64 {
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = stats.DeriveSeed(0x72696e675f746573, uint64(i))
	}
	return keys
}

func homogeneous(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestBuildRingRejectsAllDead(t *testing.T) {
	if _, err := BuildRing([]float64{0, -1, 0}, 0); !errors.Is(err, ErrNoTokens) {
		t.Fatalf("err=%v, want ErrNoTokens", err)
	}
}

func TestRingHomogeneousTokenCounts(t *testing.T) {
	r, err := BuildRing(homogeneous(16), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if got := r.TokenCount(i); got != 64 {
			t.Fatalf("node %d tokens=%d, want 64", i, got)
		}
	}
}

// TestRingChiSquaredUniform checks the satellite χ² property: with
// homogeneous weights, key ownership is statistically uniform. The
// threshold is calibrated to the token count — with T tokens per node
// the arc-length variance contributes E[χ²] ≈ (n-1)(1 + K/(nT)) — and
// doubled for slack. A broken hash (all keys to one node) scores
// ~K·(n-1), three orders of magnitude above the bound.
func TestRingChiSquaredUniform(t *testing.T) {
	const n, tokens, K = 16, 256, 16384
	r, err := BuildRing(homogeneous(n), tokens)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for _, key := range sampleKeys(K) {
		counts[r.Lookup(key, 1, nil)[0]]++
	}
	expect := float64(K) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	bound := 2 * float64(n-1) * (1 + float64(K)/float64(n*tokens))
	if chi2 > bound {
		t.Fatalf("χ²=%.1f exceeds bound %.1f (counts=%v)", chi2, bound, counts)
	}
}

// TestRingTokenShareMonotone checks that token count is monotone (and
// proportional within rounding) in weight — the channel through which
// the ADAPT availability score 1/E[T] shapes placement.
func TestRingTokenShareMonotone(t *testing.T) {
	weights := []float64{0.25, 0.5, 1, 2, 4, 8}
	r, err := BuildRing(weights, 64)
	if err != nil {
		t.Fatal(err)
	}
	unit := (0.25 + 0.5 + 1 + 2 + 4 + 8) / 6
	for i := range weights {
		if i > 0 && r.TokenCount(i) < r.TokenCount(i-1) {
			t.Fatalf("token count not monotone: node %d has %d < node %d's %d",
				i, r.TokenCount(i), i-1, r.TokenCount(i-1))
		}
		want := float64(64) * weights[i] / unit
		got := float64(r.TokenCount(i))
		if got < want-1 || got > want+1 {
			t.Fatalf("node %d tokens=%v, want %v±1", i, got, want)
		}
	}
}

// TestRingBoundedMovementOnLeave checks the defining consistent-hash
// property: when a node leaves, the ONLY keys that move are the ones
// it owned, and that is ≤ ceil(K/P) + slack of the key population.
func TestRingBoundedMovementOnLeave(t *testing.T) {
	const n, K = 16, 8192
	r, err := BuildRing(homogeneous(n), 64)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	w := homogeneous(n)
	w[victim] = 0
	r2, err := BuildRing(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeys(K)
	moved := 0
	for _, key := range keys {
		before, after := r.Lookup(key, 1, nil)[0], r2.Lookup(key, 1, nil)[0]
		if before != after {
			moved++
			if before != victim {
				t.Fatalf("collateral movement: key %x moved %d→%d though %d left", key, before, after, victim)
			}
			if after == victim {
				t.Fatalf("key %x still owned by departed node", key)
			}
		}
	}
	// The victim's expected share is K/n; allow a full extra share of
	// slack for arc-length variance.
	if limit := 2 * ((K + n - 1) / n); moved > limit {
		t.Fatalf("moved %d keys > limit %d", moved, limit)
	}
	if moved == 0 {
		t.Fatal("no keys moved — victim owned nothing?")
	}
}

// TestRingJoinReproducesRing checks the inverse: the ring with node 7
// back at its weight is the ring without it plus the keys node 7 takes,
// because token positions are pure functions of (node, index).
func TestRingJoinReproducesRing(t *testing.T) {
	const n = 16
	full, err := BuildRing(homogeneous(n), 64)
	if err != nil {
		t.Fatal(err)
	}
	w := homogeneous(n)
	w[7] = 0
	without, err := BuildRing(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	took := 0
	for _, key := range sampleKeys(4096) {
		a, b := full.Lookup(key, 1, nil)[0], without.Lookup(key, 1, nil)[0]
		if a == 7 {
			took++
		} else if a != b {
			t.Fatalf("key %x: full ring owner %d, ring without node 7 owner %d", key, a, b)
		}
	}
	if took == 0 {
		t.Fatal("node 7 took no keys on rejoining")
	}
}

func TestRingLookupDistinctAndEligible(t *testing.T) {
	r, err := BuildRing(homogeneous(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sampleKeys(256) {
		got := r.Lookup(key, 3, func(n int) bool { return n%2 == 0 })
		if len(got) != 3 {
			t.Fatalf("key %x: %d nodes, want 3", key, len(got))
		}
		seen := map[int]bool{}
		for _, n := range got {
			if n%2 != 0 {
				t.Fatalf("ineligible node %d returned", n)
			}
			if seen[n] {
				t.Fatalf("duplicate node %d in %v", n, got)
			}
			seen[n] = true
		}
	}
	// Asking for more nodes than exist returns the whole eligible ring.
	if got := r.Lookup(42, 99, nil); len(got) != 8 {
		t.Fatalf("oversized lookup returned %d nodes", len(got))
	}
	if got := r.Lookup(42, 1, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("lookup with nothing eligible = %v, want none", got)
	}
}

// TestTenantSetDeterministic checks shard-shuffle determinism: the
// tenant's S-set is a pure function of (tenant, ring) — identical
// across independently built rings — and distinct tenants land on
// distinct subsets.
func TestTenantSetDeterministic(t *testing.T) {
	r1, _ := BuildRing(homogeneous(32), 64)
	r2, _ := BuildRing(homogeneous(32), 64)
	distinct := map[string]bool{}
	for i := 0; i < 8; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		a := r1.TenantSet(tenant, 4, nil)
		b := r2.TenantSet(tenant, 4, nil)
		if len(a) != 4 {
			t.Fatalf("%s: set size %d, want 4", tenant, len(a))
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s: set differs across builds: %v vs %v", tenant, a, b)
		}
		distinct[fmt.Sprint(a)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all 8 tenants shuffled onto the same subset: %v", distinct)
	}
}

// TestTenantIsolation checks the bounded-reshuffle guarantees: churn
// outside a tenant's S-set never changes the set, and losing one
// member replaces exactly one node.
func TestTenantIsolation(t *testing.T) {
	const n, s = 32, 4
	r, err := BuildRing(homogeneous(n), 64)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	eligible := func(i int) bool { return live[i] }

	setA := r.TenantSet("tenant-a", s, eligible)
	setB := r.TenantSet("tenant-b", s, eligible)
	inA := map[int]bool{}
	for _, m := range setA {
		inA[m] = true
	}

	// Kill a node outside A's set: A must not move.
	outsider := -1
	for i := 0; i < n; i++ {
		if !inA[i] {
			outsider = i
			break
		}
	}
	live[outsider] = false
	if got := r.TenantSet("tenant-a", s, eligible); fmt.Sprint(got) != fmt.Sprint(setA) {
		t.Fatalf("outsider death reshuffled tenant-a: %v → %v", setA, got)
	}
	live[outsider] = true

	// Kill one member of A: exactly one replacement; and if that node
	// was not in B's set, B must not move either.
	victim := setA[0]
	live[victim] = false
	after := r.TenantSet("tenant-a", s, eligible)
	if len(after) != s {
		t.Fatalf("set shrank: %v", after)
	}
	kept := 0
	for _, m := range after {
		if m == victim {
			t.Fatalf("dead node %d still in set %v", victim, after)
		}
		if inA[m] {
			kept++
		}
	}
	if kept != s-1 {
		t.Fatalf("member death replaced %d nodes, want exactly 1 (%v → %v)", s-kept, setA, after)
	}
	inB := map[int]bool{}
	for _, m := range setB {
		inB[m] = true
	}
	if !inB[victim] {
		if got := r.TenantSet("tenant-b", s, eligible); fmt.Sprint(got) != fmt.Sprint(setB) {
			t.Fatalf("tenant-a churn reshuffled tenant-b: %v → %v", setB, got)
		}
	}
}

// TestBlockPlacementStaysInTenantSet checks N-of-S replication: every
// block replica lands inside the tenant's S-set.
func TestBlockPlacementStaysInTenantSet(t *testing.T) {
	r, err := BuildRing(homogeneous(32), 64)
	if err != nil {
		t.Fatal(err)
	}
	set := r.TenantSet("acme", 6, nil)
	member := map[int]bool{}
	for _, m := range set {
		member[m] = true
	}
	for b := 0; b < 200; b++ {
		holders := r.Lookup(BlockKey("@acme/big.dat", b), 3, func(i int) bool { return member[i] })
		if len(holders) != 3 {
			t.Fatalf("block %d: %d holders", b, len(holders))
		}
		for _, h := range holders {
			if !member[h] {
				t.Fatalf("block %d placed on %d outside tenant set %v", b, h, set)
			}
		}
	}
}
