// Package shardns is the leaf-lock fixture: a sharded table whose
// per-shard mutexes must be leaves. Two functions hold one shard
// while taking another — directly and through a callee — and one
// walks the shards the approved way, one at a time in ascending
// order.
package shardns

import "sync"

// tblShard is one shard of a hashed namespace table; the "Shard"
// type-name suffix opts its mutex into the leaf-lock discipline.
type tblShard struct {
	mu sync.Mutex
	n  int
}

// MoveBad drains one shard into another while holding both — two
// instances of the same lock, a self-edge of lockcheck's
// declaration-level graph, but exactly the opposite-order deadlock
// the ascending-walk rule exists to prevent.
func MoveBad(a, b *tblShard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n += a.n
	a.n = 0
}

// SumBad reaches the second shard through a callee: the nested
// acquisition arrives via peek's transitive summary.
func SumBad(a, b *tblShard) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n + peek(b)
}

func peek(s *tblShard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Total is the approved discipline: visit shards one at a time in
// ascending index order, never holding two locks at once.
func Total(shards []*tblShard) int {
	sum := 0
	for _, s := range shards {
		s.mu.Lock()
		sum += s.n
		s.mu.Unlock()
	}
	return sum
}
