package shard

import (
	"fmt"
	"sort"
	"sync"
)

// Quota bounds one tenant's namespace footprint. Zero fields are
// unlimited.
type Quota struct {
	// MaxFiles caps the tenant's live file count.
	MaxFiles int64 `json:"max_files,omitempty"`
	// MaxBytes caps the tenant's total logical bytes (file sizes, not
	// replicated bytes).
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// MaxRF caps the replication factor of any file the tenant
	// creates.
	MaxRF int `json:"max_rf,omitempty"`
}

// Usage is one tenant's live namespace footprint.
type Usage struct {
	Files int64 `json:"files"`
	Bytes int64 `json:"bytes"`
}

// TenantUsage pairs a tenant with its quota and usage — the /metrics
// and fsck rollup row.
type TenantUsage struct {
	Tenant string `json:"tenant"`
	Quota  Quota  `json:"quota"`
	Usage  Usage  `json:"usage"`
}

// Quotas is the tenant quota registry the shard layer enforces.
// Reserve/Release keep usage consistent across shards: a tenant's
// files spread over every shard, so the accounting cannot live inside
// any one shard's lock. The registry's own mutex is a leaf — no
// method acquires any other lock — so it can be called from under a
// shard lock without ordering concerns.
type Quotas struct {
	mu     sync.Mutex
	quotas map[string]Quota
	usage  map[string]Usage
}

// NewQuotas returns an empty registry: every tenant unlimited.
func NewQuotas() *Quotas {
	return &Quotas{quotas: make(map[string]Quota), usage: make(map[string]Usage)}
}

// Set installs (or, with the zero Quota, effectively lifts) a
// tenant's quota.
func (q *Quotas) Set(tenant string, quota Quota) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.quotas[tenant] = quota
}

// Check reports whether a reservation of files/bytes at replication
// rf would fit the tenant's quota, without reserving. The authoritative
// admission decision is Reserve; Check lets the write path fail fast
// before any replica bytes move.
func (q *Quotas) Check(tenant string, files, bytes int64, rf int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.checkLocked(tenant, files, bytes, rf)
}

// Reserve atomically admits files/bytes at replication rf against the
// tenant's quota, updating usage. A failed reservation changes
// nothing. Callers must pair every successful Reserve with a Release
// when the mutation is undone or the files are deleted.
func (q *Quotas) Reserve(tenant string, files, bytes int64, rf int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.checkLocked(tenant, files, bytes, rf); err != nil {
		return err
	}
	u := q.usage[tenant]
	u.Files += files
	u.Bytes += bytes
	q.usage[tenant] = u
	return nil
}

func (q *Quotas) checkLocked(tenant string, files, bytes int64, rf int) error {
	quota, ok := q.quotas[tenant]
	if !ok {
		return nil
	}
	u := q.usage[tenant]
	if quota.MaxFiles > 0 && u.Files+files > quota.MaxFiles {
		return fmt.Errorf("%w: tenant %q files %d+%d > %d", ErrQuota, tenant, u.Files, files, quota.MaxFiles)
	}
	if quota.MaxBytes > 0 && u.Bytes+bytes > quota.MaxBytes {
		return fmt.Errorf("%w: tenant %q bytes %d+%d > %d", ErrQuota, tenant, u.Bytes, bytes, quota.MaxBytes)
	}
	if quota.MaxRF > 0 && rf > quota.MaxRF {
		return fmt.Errorf("%w: tenant %q replication %d > ceiling %d", ErrQuota, tenant, rf, quota.MaxRF)
	}
	return nil
}

// Release returns files/bytes to the tenant's budget (a delete, or an
// unwound create). Usage never goes negative: restores that replay a
// partial history clamp at zero rather than corrupting the ledger.
func (q *Quotas) Release(tenant string, files, bytes int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	u := q.usage[tenant]
	u.Files -= files
	u.Bytes -= bytes
	if u.Files < 0 {
		u.Files = 0
	}
	if u.Bytes < 0 {
		u.Bytes = 0
	}
	q.usage[tenant] = u
}

// ResetUsage replaces the whole usage ledger — the recovery path,
// which recomputes footprints from the restored namespace image.
func (q *Quotas) ResetUsage(usage map[string]Usage) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.usage = make(map[string]Usage, len(usage))
	for t, u := range usage {
		q.usage[t] = u
	}
}

// Snapshot returns every tenant with a quota or nonzero usage, sorted
// by tenant name for deterministic rendering.
func (q *Quotas) Snapshot() []TenantUsage {
	q.mu.Lock()
	defer q.mu.Unlock()
	seen := make(map[string]bool, len(q.quotas)+len(q.usage))
	for t := range q.quotas {
		seen[t] = true
	}
	for t, u := range q.usage {
		if u.Files != 0 || u.Bytes != 0 {
			seen[t] = true
		}
	}
	tenants := make([]string, 0, len(seen))
	for t := range seen {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	out := make([]TenantUsage, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, TenantUsage{Tenant: t, Quota: q.quotas[t], Usage: q.usage[t]})
	}
	return out
}
