package placement

import (
	"fmt"
	"sort"

	"github.com/adaptsim/adapt/internal/cluster"
)

// Validate checks structural invariants: every block has exactly k
// distinct holders with valid ids, and no node exceeds limit (if
// limit > 0).
func (a *Assignment) Validate(k, limit int) error {
	counts := make(map[cluster.NodeID]int)
	for b, hs := range a.Replicas {
		if len(hs) != k {
			return fmt.Errorf("placement: block %d has %d replicas, want %d", b, len(hs), k)
		}
		seen := make(map[cluster.NodeID]bool, k)
		for _, h := range hs {
			if h < 0 || (a.Nodes > 0 && int(h) >= a.Nodes) {
				return fmt.Errorf("placement: block %d placed on invalid node %d", b, h)
			}
			if seen[h] {
				return fmt.Errorf("placement: block %d has duplicate holder %d", b, h)
			}
			seen[h] = true
			counts[h]++
		}
	}
	if limit > 0 {
		// Check nodes in id order so the reported violation (and the
		// error text) is deterministic, not map-iteration-dependent.
		ids := make([]cluster.NodeID, 0, len(counts))
		for id := range counts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if counts[id] > limit {
				return fmt.Errorf("placement: node %d holds %d blocks, cap %d", id, counts[id], limit)
			}
		}
	}
	return nil
}
