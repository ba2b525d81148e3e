package chaos

import (
	"errors"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

func TestNetFaultsPartitionIsSymmetricAndHealable(t *testing.T) {
	f, err := NewNetFaults(stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FailMessage("namenode", "datanode-1"); err != nil {
		t.Fatalf("unpartitioned message failed: %v", err)
	}

	f.Partition("datanode-1")
	if err := f.FailMessage("namenode", "datanode-1"); err == nil {
		t.Fatal("message to partitioned endpoint delivered")
	}
	err = f.FailMessage("datanode-1", "namenode")
	if err == nil {
		t.Fatal("message from partitioned endpoint delivered")
	}
	// The injected error is transient so the DFS retry machinery
	// treats a partition like a node outage.
	var ne *NetError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %T, want *NetError", err)
	}
	if !dfs.IsTransient(err) {
		t.Fatal("partition error not classified transient")
	}
	if err := f.FailMessage("namenode", "datanode-2"); err != nil {
		t.Fatalf("unrelated endpoint affected: %v", err)
	}

	f.Heal("datanode-1")
	if err := f.FailMessage("namenode", "datanode-1"); err != nil {
		t.Fatalf("healed endpoint still failing: %v", err)
	}
}

func TestNetFaultsSeededDropsReproduce(t *testing.T) {
	run := func(seed uint64) []bool {
		f, err := NewNetFaults(stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		f.SetDropProb(0.3)
		out := make([]bool, 200)
		for i := range out {
			out[i] = f.FailMessage("a", "b") != nil
		}
		return out
	}
	a, b := run(42), run(42)
	dropped := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop schedule diverges at message %d", i)
		}
		if a[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("dropped %d of %d, want a mix", dropped, len(a))
	}
}

func TestNetFaultsDelayCapped(t *testing.T) {
	f, err := NewNetFaults(stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MessageDelay("a", "b"); d != 0 {
		t.Fatalf("delay with no distribution = %v", d)
	}
	dist, err := stats.NewExponential(1.0) // mean 1 s
	if err != nil {
		t.Fatal(err)
	}
	f.SetLatency(dist, 5*time.Millisecond)
	for i := 0; i < 100; i++ {
		if d := f.MessageDelay("a", "b"); d < 0 || d > 5*time.Millisecond {
			t.Fatalf("delay %v outside [0, 5ms]", d)
		}
	}
}
