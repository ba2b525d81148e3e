package dfs

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/adaptsim/adapt/internal/cluster"
)

// ReplicationReport summarizes a MaintainReplication pass.
type ReplicationReport struct {
	// Healthy counts blocks whose live replicas already meet the file's
	// Replication.
	Healthy int
	// Repaired counts replicas added.
	Repaired int
	// Unrepairable counts blocks with no live replica to copy from;
	// they recover only when a holder rejoins.
	Unrepairable int
	// Pruned counts surplus replicas retired because a block held more
	// live replicas than the file's Replication.
	Pruned int
}

// MaintainReplication restores each block of the file to its declared
// replication degree counting only replicas on live DataNodes — the
// HDFS NameNode's under-replication repair, which the paper's
// replication comparisons presume. New replicas are placed with the
// availability-aware distributor when useAdapt is set, else uniformly
// at random among live nodes.
//
// Blocks whose every holder is down cannot be repaired (their bytes
// are unreachable) and are reported as such.
//
// Blocks holding more live replicas than the declared degree (a
// holder rejoined after its block was repaired elsewhere) are pruned
// down, as the HDFS NameNode retires excess replicas: the
// lowest-efficiency live holders are retired, their metadata entries
// removed (write-ahead journaled) before the bytes are invalidated, so
// metadata never points at data that is gone. Down holders are never
// pruned: their bytes may be the only surviving copies and cost
// nothing while unreachable.
func (c *Client) MaintainReplication(ctx context.Context, name string, useAdapt bool) (ReplicationReport, error) {
	var report ReplicationReport
	unlock := c.nn.lockFile(name)
	defer unlock()
	fm, err := c.nn.Stat(name)
	if err != nil {
		return report, err
	}

	// One availability snapshot serves the whole pass: the repair
	// weights and the surplus split.
	effs := c.nn.Cluster().Efficiencies(defaultGamma)
	rf := fm.Replication

	// Candidate target nodes: live DataNodes, weighted by the policy.
	weights := repairWeights(effs, useAdapt)

	g := c.g.Split()
	newBlocks := make([]BlockMeta, len(fm.Blocks))
	copy(newBlocks, fm.Blocks)
	// prune collects replicas removed from the published metadata,
	// whose bytes are invalidated only after the new locations are live.
	var prune []BlockMeta
	for i, bm := range fm.Blocks {
		live := 0
		holderSet := make(map[cluster.NodeID]bool, len(bm.Replicas))
		for _, r := range bm.Replicas {
			holderSet[r] = true
			s, err := c.nn.Store(r)
			if err != nil {
				return report, err
			}
			if s.Up() {
				live++
			}
		}
		if live > rf {
			keep, dropped := c.splitSurplus(effs, bm.Replicas, live-rf)
			nb := bm
			nb.Replicas = keep
			newBlocks[i] = nb
			prune = append(prune, BlockMeta{ID: bm.ID, Replicas: dropped})
			report.Pruned += len(dropped)
			continue
		}
		if live >= rf {
			report.Healthy++
			continue
		}
		if live == 0 {
			report.Unrepairable++
			c.nn.io.counters.UnrepairableBlocks.Add(1)
			continue
		}
		data, err := c.readBlock(ctx, bm)
		if err != nil {
			report.Unrepairable++
			c.nn.io.counters.UnrepairableBlocks.Add(1)
			continue
		}
		// The read verified the bytes against bm.Checksum, so each
		// target is given the sum instead of taking it again.
		p := blockPut{id: bm.ID, data: data, sum: bm.Checksum, summed: true,
			placed: append([]cluster.NodeID(nil), bm.Replicas...)}
		for live < rf {
			target, ok := pickWeighted(weights, holderSet, c.nn, g.Float64())
			if !ok {
				break // no live node left to host another replica
			}
			holderSet[target] = true
			if !c.nn.io.putOne(ctx, &p, target) {
				if !IsTransient(p.err) {
					return report, fmt.Errorf("dfs: repair %q block %d: %w", name, bm.Index, p.err)
				}
				// Node raced down (or a chaos fault fired); the target
				// stays excluded and repair goes on with the others.
				continue
			}
			live++
			report.Repaired++
			c.nn.io.counters.RepairedReplicas.Add(1)
		}
		nb := bm
		nb.Replicas = p.placed
		newBlocks[i] = nb
	}

	// Write-ahead: repaired locations are journaled before they are
	// published (publishBlocks). On failure the extra copies leak as
	// surplus replicas (harmless, like a crash mid-prune), never as
	// lost metadata.
	if err := c.nn.publishBlocks(name, newBlocks); err != nil {
		if errors.Is(err, ErrFileNotFound) {
			return report, fmt.Errorf("%w: %q (deleted during repair)", ErrFileNotFound, name)
		}
		return report, err
	}
	// Invalidate pruned bytes only after the trimmed metadata is
	// published, so metadata never points at data that is gone. The
	// deletes are best-effort lazy invalidation (a failure leaks a
	// surplus copy, never live metadata) through DeleteBlocks, detached
	// from ctx's cancellation and bounded by unwindBudget, as
	// redistribute's prune is. The file's structural lock is still
	// held, so no concurrent consistency check can observe the window
	// between publish and delete anyway.
	c.nn.io.DeleteBlocks(ctx, prune)
	c.nn.io.counters.PrunedReplicas.Add(int64(report.Pruned))
	return report, nil
}

// splitSurplus partitions a block's holders for pruning: drop the n
// lowest-efficiency live holders (ties broken toward keeping the
// lowest node id), keep everything else — including down holders,
// whose bytes may be the only surviving copies. The keep slice
// preserves the original replica order.
func (c *Client) splitSurplus(effs []float64, replicas []cluster.NodeID, n int) (keep, dropped []cluster.NodeID) {
	type cand struct {
		id  cluster.NodeID
		eff float64
	}
	var liveHolders []cand
	for _, r := range replicas {
		if s, err := c.nn.Store(r); err == nil && s.Up() {
			liveHolders = append(liveHolders, cand{id: r, eff: effs[r]})
		}
	}
	sort.Slice(liveHolders, func(i, j int) bool {
		if liveHolders[i].eff != liveHolders[j].eff {
			return liveHolders[i].eff < liveHolders[j].eff
		}
		return liveHolders[i].id > liveHolders[j].id
	})
	if n > len(liveHolders) {
		n = len(liveHolders)
	}
	cutSet := make(map[cluster.NodeID]bool, n)
	for _, lc := range liveHolders[:n] {
		cutSet[lc.id] = true
	}
	keep = make([]cluster.NodeID, 0, len(replicas)-n)
	for _, r := range replicas {
		if cutSet[r] {
			dropped = append(dropped, r)
		} else {
			keep = append(keep, r)
		}
	}
	return keep, dropped
}

// repairWeights returns per-node placement weights for repair targets:
// the efficiencies effs under ADAPT, else uniform.
func repairWeights(effs []float64, useAdapt bool) []float64 {
	if useAdapt {
		// Guard against an all-zero weight vector (every node
		// unstable): fall back to uniform.
		var total float64
		for _, w := range effs {
			total += w
		}
		if total > 0 {
			return effs
		}
	}
	ws := make([]float64, len(effs))
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

// pickWeighted draws a live node not in exclude, proportionally to
// weights, using the supplied uniform variate.
func pickWeighted(weights []float64, exclude map[cluster.NodeID]bool, nn *NameNode, u float64) (cluster.NodeID, bool) {
	var total float64
	for i, w := range weights {
		id := cluster.NodeID(i)
		if w <= 0 || exclude[id] {
			continue
		}
		s, err := nn.Store(id)
		if err != nil || !s.Up() {
			continue
		}
		total += w
	}
	if total <= 0 {
		return 0, false
	}
	r := u * total
	for i, w := range weights {
		id := cluster.NodeID(i)
		if w <= 0 || exclude[id] {
			continue
		}
		s, err := nn.Store(id)
		if err != nil || !s.Up() {
			continue
		}
		r -= w
		if r <= 0 {
			return id, true
		}
	}
	// Floating-point slack: return the last eligible.
	for i := len(weights) - 1; i >= 0; i-- {
		id := cluster.NodeID(i)
		if weights[i] <= 0 || exclude[id] {
			continue
		}
		s, err := nn.Store(id)
		if err == nil && s.Up() {
			return id, true
		}
	}
	return 0, false
}
