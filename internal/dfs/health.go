package dfs

import (
	"sort"

	"github.com/adaptsim/adapt/internal/shard"
)

// FileHealth is one file's replication health in a HealthReport.
type FileHealth struct {
	Name            string `json:"name"`
	Blocks          int    `json:"blocks"`
	UnderReplicated int    `json:"under_replicated"`
	Unavailable     int    `json:"unavailable"`
}

// HealthReport is the fsck view of the namespace: for every block,
// how many of its replicas sit on nodes the NameNode currently
// believes are up. A block below its file's replication target is
// under-replicated; a block with zero live replicas is unavailable
// (also counted under-replicated). The liveness input is the
// NameNode's belief — heartbeats and the failure detector feed it —
// not ground truth about remote disks.
type HealthReport struct {
	Files           int          `json:"files"`
	Blocks          int          `json:"blocks"`
	UnderReplicated int          `json:"under_replicated"`
	Unavailable     int          `json:"unavailable"`
	Details         []FileHealth `json:"details,omitempty"`
	// Shards is the namespace shard count the report was taken over.
	Shards int `json:"shards,omitempty"`
	// Tenants is the per-tenant quota/usage rollup (sorted by tenant),
	// the fsck view of multi-tenancy.
	Tenants []shard.TenantUsage `json:"tenants,omitempty"`
}

// Health surveys every file's block map against current node
// liveness. Shards are surveyed one at a time in ascending index
// order and the details merged by file name, so the output is
// deterministic and identical across shard counts.
func (nn *NameNode) Health() HealthReport {
	report := HealthReport{Shards: len(nn.shards)}
	for _, sh := range nn.shards {
		sh.mu.Lock()
		for name, fm := range sh.files {
			fh := FileHealth{Name: name, Blocks: len(fm.Blocks)}
			for _, bm := range fm.Blocks {
				live := 0
				for _, r := range bm.Replicas {
					if int(r) >= 0 && int(r) < len(nn.io.stores) && nn.io.stores[r].Up() {
						live++
					}
				}
				if live < fm.Replication {
					fh.UnderReplicated++
				}
				if live == 0 {
					fh.Unavailable++
				}
			}
			report.Blocks += fh.Blocks
			report.UnderReplicated += fh.UnderReplicated
			report.Unavailable += fh.Unavailable
			report.Details = append(report.Details, fh)
		}
		sh.mu.Unlock()
	}
	report.Files = len(report.Details)
	sort.Slice(report.Details, func(i, j int) bool { return report.Details[i].Name < report.Details[j].Name })
	report.Tenants = nn.quotas.Snapshot()
	return report
}
