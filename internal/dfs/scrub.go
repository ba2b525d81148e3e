package dfs

import (
	"context"
	"slices"

	"github.com/adaptsim/adapt/internal/cluster"
)

// ScrubOrphans deletes stored replicas the metadata does not list on
// their node: residue of torn pipelines, of writers that gave up or
// vanished, and of deletes whose holder was unreachable — including a
// surplus copy of a live block on a node its file does not list. Each
// store's inventory is diffed against the metadata; a store that
// cannot list (unreachable) is skipped, never assumed empty.
//
// It is safe beside creates: a create in flight holds replicas whose
// metadata is not yet published, and those are exempt — blocks minted
// after the scan starts by the block-id high-water mark, older ones by
// their allocation's lease until Complete publishes them or the lease
// runs out. A copy of a published block is judged under its file's
// structural lock, which redistribute and repair hold while they copy
// onto new holders and publish them, so their copies in flight are
// never taken. Returns how many replicas were removed.
func (nn *NameNode) ScrubOrphans(ctx context.Context) (int, error) {
	// The high-water mark is read before any shard snapshot so a block
	// minted during the scan is always exempt.
	highWater := BlockID(nn.nextBlock.Load())
	type replica struct {
		id   BlockID
		node cluster.NodeID
	}
	owner := make(map[BlockID]string) // published block -> its file
	listed := make(map[replica]bool)
	for _, sh := range nn.shards {
		sh.mu.Lock()
		for name, fm := range sh.files {
			for _, bm := range fm.Blocks {
				owner[bm.ID] = name
				for _, r := range bm.Replicas {
					listed[replica{bm.ID, r}] = true
				}
			}
		}
		sh.mu.Unlock()
	}

	removed := 0
	for i, s := range nn.io.stores {
		node := cluster.NodeID(i)
		ids, ok := s.StoredBlocks(ctx)
		if !ok {
			continue
		}
		for _, id := range ids {
			// The lease is read before the metadata re-check below, never
			// after: Complete publishes and then drops its lease, so an
			// id found unleased here is either published by the time the
			// re-check looks or was never going to be.
			if listed[replica{id, node}] || id >= highWater || nn.leases.leased(id) {
				continue
			}
			name, live := owner[id]
			if !live {
				// Published since the snapshot? Then it is judged like
				// any live block.
				name, _, live = nn.lookupBlock(id, node)
			}
			if !live {
				if s.Delete(ctx, id) == nil {
					removed++
				}
				continue
			}
			unlock := nn.lockFile(name)
			if _, held, _ := nn.lookupBlock(id, node); !held && s.Delete(ctx, id) == nil {
				removed++
			}
			unlock()
		}
		if err := ctx.Err(); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// lookupBlock finds block id in current metadata: the file that lists
// it, whether node n is among its holders, and whether any file lists
// it at all. Shards are scanned one at a time, ascending.
func (nn *NameNode) lookupBlock(id BlockID, n cluster.NodeID) (file string, held, ok bool) {
	for _, sh := range nn.shards {
		sh.mu.Lock()
		for name, fm := range sh.files {
			for _, bm := range fm.Blocks {
				if bm.ID == id {
					sh.mu.Unlock()
					return name, slices.Contains(bm.Replicas, n), true
				}
			}
		}
		sh.mu.Unlock()
	}
	return "", false, false
}
