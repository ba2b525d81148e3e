package chaos

import (
	"errors"
	"sync"
)

// ErrCrashed marks operations refused because a CrashFaults injector
// has pulled the plug on the process it simulates.
var ErrCrashed = errors.New("chaos: simulated crash")

// CrashFaults simulates a process crash (SIGKILL) inside a durability
// write path. It implements the wal append-fault hook structurally
// (wal.AppendFaults): after a configured number of appends succeed,
// the next append "crashes" — a chosen prefix of the frame reaches
// disk (a torn record for recovery to tolerate) and every later
// append fails with ErrCrashed, exactly the shape a killed process
// leaves behind.
//
// The schedule is fully deterministic: the same (appends, tornBytes)
// always crashes at the same record with the same torn prefix, so a
// seeded soak reproduces its crash byte-for-byte.
type CrashFaults struct {
	mu        sync.Mutex
	remaining int
	torn      int
	crashed   bool
}

// CrashAfter builds an injector that lets `appends` appends commit,
// then crashes the next one leaving `tornBytes` of its frame on disk
// (clamped to the frame length).
//
//lint:ignore deadcode fault injection: svc's TestJournalFailureVetoesMutation crashes a WAL append mid-frame
func CrashAfter(appends, tornBytes int) *CrashFaults {
	return &CrashFaults{remaining: appends, torn: tornBytes}
}

// BeforeAppend implements the wal append-fault hook.
func (c *CrashFaults) BeforeAppend(frame []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	if c.remaining > 0 {
		c.remaining--
		return len(frame), nil
	}
	c.crashed = true
	torn := c.torn
	if torn > len(frame) {
		torn = len(frame)
	}
	return torn, ErrCrashed
}
