package chaos

import (
	"errors"
	"testing"

	"github.com/adaptsim/adapt/internal/wal"
)

// TestCrashFaultsTearWAL proves the chaos crash injector satisfies
// the wal fault hook and produces exactly the torn-tail shape the
// log's recovery path tolerates.
func TestCrashFaultsTearWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cf := CrashAfter(3, 7)
	l.SetFaults(cf)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("acknowledged")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if cf.Crashed() {
		t.Fatal("crashed too early")
	}
	if _, err := l.Append([]byte("in-flight")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append = %v, want ErrCrashed", err)
	}
	if !cf.Crashed() {
		t.Fatal("injector did not record the crash")
	}
	// Everything after the crash fails without touching disk.
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("append after crash succeeded")
	}
	// Recovery: the three acknowledged records replay; the 7-byte
	// torn prefix of the fourth is truncated away.
	l2, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer l2.Close()
	var n int
	if err := l2.Replay(func(seq uint64, rec []byte) error {
		n++
		if string(rec) != "acknowledged" {
			t.Fatalf("record %d = %q", seq, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 || l2.Seq() != 3 {
		t.Fatalf("recovered %d records, seq %d; want 3, 3", n, l2.Seq())
	}
}

// TestCrashAfterDeterminism: identical schedules crash identically.
func TestCrashAfterDeterminism(t *testing.T) {
	run := func() (int, error) {
		cf := CrashAfter(2, 4)
		frame := []byte("0123456789")
		for i := 0; i < 2; i++ {
			if n, err := cf.BeforeAppend(frame); n != len(frame) || err != nil {
				t.Fatalf("append %d: n=%d err=%v", i, n, err)
			}
		}
		return cf.BeforeAppend(frame)
	}
	n1, e1 := run()
	n2, e2 := run()
	if n1 != n2 || !errors.Is(e1, ErrCrashed) || !errors.Is(e2, ErrCrashed) {
		t.Fatalf("nondeterministic crash: (%d,%v) vs (%d,%v)", n1, e1, n2, e2)
	}
	if n1 != 4 {
		t.Fatalf("torn bytes = %d, want 4", n1)
	}
}

// Crashed reports whether the simulated crash has fired.
func (c *CrashFaults) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}
