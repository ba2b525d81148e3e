package placement

import (
	"errors"
	"testing"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/model"
	"github.com/adaptsim/adapt/internal/shard"
	"github.com/adaptsim/adapt/internal/stats"
)

func testRing(t *testing.T, n int) *shard.Ring {
	t.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	r, err := shard.BuildRing(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHashringDeterministicPlacement: same (ring, file, tenant, S) →
// bit-identical assignment, regardless of the RNG handed in.
func TestHashringDeterministicPlacement(t *testing.T) {
	ring := testRing(t, 16)
	place := func(seed uint64) *Assignment {
		p, err := NewHashring(ring, "@acme/data.bin", "acme", 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := PlaceAll(p, 40, 3, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := place(1), place(999)
	if err := a.Validate(3, 0); err != nil {
		t.Fatal(err)
	}
	for blk := range a.Replicas {
		for r := range a.Replicas[blk] {
			if a.Replicas[blk][r] != b.Replicas[blk][r] {
				t.Fatalf("block %d replica %d differs across RNG seeds: %v vs %v",
					blk, r, a.Replicas[blk], b.Replicas[blk])
			}
		}
	}
}

// TestHashringConfinedToTenantSet: every holder is a member of the
// tenant's S-set.
func TestHashringConfinedToTenantSet(t *testing.T) {
	ring := testRing(t, 24)
	set := ring.TenantSet("acme", 5, nil)
	member := map[cluster.NodeID]bool{}
	for _, n := range set {
		member[cluster.NodeID(n)] = true
	}
	p, err := NewHashring(ring, "@acme/f", "acme", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlaceAll(p, 100, 2, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for blk, hs := range a.Replicas {
		for _, h := range hs {
			if !member[h] {
				t.Fatalf("block %d on node %d outside S-set %v", blk, h, set)
			}
		}
	}
}

func TestHashringRejectsTooSmallSet(t *testing.T) {
	ring := testRing(t, 16)
	p, err := NewHashring(ring, "f", "tiny", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewPlacer(10, 3, stats.NewRNG(1)); !errors.Is(err, ErrTooManyReplicas) {
		t.Fatalf("S=2 k=3: err=%v, want ErrTooManyReplicas", err)
	}
}

func TestHashringRespectsLiveness(t *testing.T) {
	ring := testRing(t, 16)
	dead := 3
	live := func(n int) bool { return n != dead }
	p, err := NewHashring(ring, "f", "", 0, live)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PlaceAll(p, 200, 3, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for blk, hs := range a.Replicas {
		for _, h := range hs {
			if int(h) == dead {
				t.Fatalf("block %d placed on dead node %d", blk, dead)
			}
		}
	}
}

func TestBuildAvailabilityRingWeightsFollowEfficiency(t *testing.T) {
	// Node 0 is much flakier than node 7.
	nodes := make([]cluster.Node, 8)
	for i := range nodes {
		nodes[i].Availability = model.FromMTBI(1000*float64(i+1), 50)
	}
	c, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := BuildAvailabilityRing(c, 12, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ring.TokenCount(7) <= ring.TokenCount(0) {
		t.Fatalf("more-available node holds fewer tokens: node7=%d node0=%d",
			ring.TokenCount(7), ring.TokenCount(0))
	}
	if _, err := BuildAvailabilityRing(c, -1, 64); err == nil {
		t.Fatal("negative gamma accepted")
	}
	if _, err := BuildAvailabilityRing(nil, 12, 64); err == nil {
		t.Fatal("nil cluster accepted")
	}
}
