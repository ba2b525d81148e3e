// Package locks is the lockcheck fixture: leaked locks, hook calls
// under a held field or local lock, and the approved disciplines (defer,
// all-paths unlock, escaping unlock, nested instances of one field).
package locks

import "sync"

// FaultInjector mirrors the dfs hook interface lockcheck watches for.
type FaultInjector interface {
	FailOp(node int) error
	CorruptRead(node int, data []byte) []byte
}

// Store is a lock-guarded map with an injector hook.
type Store struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	data  map[int]int
	hooks FaultInjector
}

// Leak locks and never unlocks — flagged.
func (s *Store) Leak() int {
	s.mu.Lock()
	return len(s.data)
}

// ReadLeak read-locks and never read-unlocks — flagged.
func (s *Store) ReadLeak() int {
	s.rw.RLock()
	return s.data[0]
}

// HookUnderLock consults the injector while holding the mutex — flagged.
func (s *Store) HookUnderLock(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hooks.FailOp(n)
}

// HookOutsideLock is the approved ordering — clean.
func (s *Store) HookOutsideLock(n int) (int, error) {
	if err := s.hooks.FailOp(n); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[n], nil
}

// AllPaths unlocks explicitly on every path — clean.
func (s *Store) AllPaths(n int) int {
	s.rw.RLock()
	if n < 0 {
		s.rw.RUnlock()
		return 0
	}
	v := s.data[n]
	s.rw.RUnlock()
	return v
}

// HookAfterUnlock releases before consulting the injector — clean.
func (s *Store) HookAfterUnlock(n int) []byte {
	s.mu.Lock()
	v := s.data[n]
	s.mu.Unlock()
	return s.hooks.CorruptRead(v, nil)
}

// Handle returns the unlock for the caller to run — clean (the
// lockFile pattern).
func (s *Store) Handle() func() {
	s.mu.Lock()
	return s.mu.Unlock
}

// Pair nests two instances of one non-shard mutex field, the per-file
// lock pattern: a self-edge the lock graph drops — clean.
func Pair(a, b *Store) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(a.data) + len(b.data)
}

// HookUnderLocalLock consults the injector while holding a local
// mutex, which has no declaration identity — flagged.
func HookUnderLocalLock(hooks FaultInjector, n int) error {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return hooks.FailOp(n)
}
