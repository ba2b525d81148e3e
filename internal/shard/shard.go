// Package shard is the scale-out layer under the NameNode: a
// deterministic path→shard map that splits the namespace into
// independently-locked (and independently-WAL'd) shards, tenant
// parsing and per-tenant quotas for the multi-tenant namespace, and a
// consistent-hash ring over DataNodes whose token counts follow the
// ADAPT availability weights (1/E[T]) — Pyroscope's distributor
// design (per-tenant shard size S, replication N within S) adapted to
// the paper's placement model.
//
// Everything here is deterministic: shard assignment, token
// positions, tenant shard sets, and block keys are pure functions of
// their inputs (FNV-1a / SplitMix64 mixing via internal/stats), so
// two NameNodes with the same configuration agree on every placement
// without coordination, and crash recovery can replay shards
// independently yet bit-identically.
package shard

import (
	"errors"
	"fmt"
	"strings"

	"github.com/adaptsim/adapt/internal/stats"
)

// MaxShards bounds the shard count: enough to spread lock and WAL
// contention across any plausible core count while keeping the
// per-shard directory layout enumerable.
const MaxShards = 256

// Errors.
var (
	// ErrBadShardCount marks a shard count outside [1, MaxShards].
	ErrBadShardCount = errors.New("shard: shard count must be in [1, 256]")
	// ErrQuota marks a namespace mutation refused because it would
	// exceed the tenant's quota. Permanent: retrying cannot help until
	// the tenant deletes data or the quota is raised.
	ErrQuota = errors.New("shard: tenant quota exceeded")
	// ErrNoTokens marks a ring build with no positively-weighted node.
	ErrNoTokens = errors.New("shard: no node has positive weight")
)

// Map deterministically assigns namespace paths to shards by FNV-1a
// hash. The zero value is unusable; build one with NewMap.
type Map struct {
	p int
}

// NewMap validates the shard count and returns the path→shard map.
func NewMap(p int) (Map, error) {
	if p < 1 || p > MaxShards {
		return Map{}, fmt.Errorf("%w: %d", ErrBadShardCount, p)
	}
	return Map{p: p}, nil
}

// Of returns the shard index of a path: FNV-1a(name) mod P, so the
// assignment is stable across runs, platforms, and restarts — a WAL
// directory written by one process replays into the same shard in the
// next.
func (m Map) Of(name string) int {
	if m.p <= 1 {
		return 0
	}
	return int(stats.HashLabel(name) % uint64(m.p))
}

// TenantOf extracts the tenant from a tenant-prefixed path: names of
// the form "@tenant/rest" belong to tenant "tenant"; every other name
// belongs to the default tenant "".
func TenantOf(name string) string {
	if !strings.HasPrefix(name, "@") {
		return ""
	}
	if i := strings.IndexByte(name, '/'); i > 1 {
		return name[1:i]
	}
	return ""
}

// Prefix returns the tenant-prefixed form of a path ("@tenant/name"),
// or the path unchanged for the default tenant.
func Prefix(tenant, name string) string {
	if tenant == "" {
		return name
	}
	return "@" + tenant + "/" + name
}
