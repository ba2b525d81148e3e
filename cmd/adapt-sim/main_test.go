package main

import (
	"io"
	"os"
	"testing"
)

// captureRun executes run() with stdout redirected to a pipe and
// returns the printed report.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(r)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return string(out)
}

// TestRunWorkersOutputInvariant: the printed report is byte-identical
// for every -workers value — the CLI face of the deterministic
// parallel-trials contract.
func TestRunWorkersOutputInvariant(t *testing.T) {
	base := []string{
		"-nodes", "16", "-blocks-per-node", "5",
		"-strategy", "adapt", "-trials", "4", "-seed", "9",
	}
	serial := captureRun(t, append([]string{"-workers", "1"}, base...))
	parallel := captureRun(t, append([]string{"-workers", "8"}, base...))
	if serial != parallel {
		t.Fatalf("-workers changed the report:\n%s---\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("captured report is empty")
	}
}

func TestRunEmulationMode(t *testing.T) {
	err := run([]string{
		"-nodes", "16", "-blocks-per-node", "5",
		"-strategy", "adapt", "-trials", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceMode(t *testing.T) {
	err := run([]string{
		"-mode", "trace", "-nodes", "32", "-blocks-per-node", "5",
		"-strategy", "random", "-trials", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunNaiveStrategy(t *testing.T) {
	err := run([]string{
		"-nodes", "16", "-blocks-per-node", "5",
		"-strategy", "naive", "-trials", "1", "-speculation", "none",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cases := [][]string{
		{"-mode", "bogus"},
		{"-strategy", "bogus", "-nodes", "8", "-blocks-per-node", "2"},
		{"-trials", "0", "-nodes", "8", "-blocks-per-node", "2"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunCPUProfileFlag(t *testing.T) {
	out := t.TempDir() + "/cpu.prof"
	if err := run([]string{"-nodes", "16", "-blocks-per-node", "5", "-cpuprofile", out}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
}
