package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	adapt "github.com/adaptsim/adapt"
)

func TestRunDefaultsExperiment(t *testing.T) {
	if err := run([]string{"-exp", "defaults"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable1Markdown(t *testing.T) {
	if err := run([]string{"-exp", "table1", "-markdown"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHeadlineScaled(t *testing.T) {
	if err := run([]string{"-exp", "headline", "-scale", "0.25", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig4View(t *testing.T) {
	if err := run([]string{"-exp", "fig4a", "-scale", "0.2", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkersFlag(t *testing.T) {
	if err := run([]string{"-exp", "headline", "-scale", "0.25", "-trials", "1", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBenchWritesVerifiableReport drives the full bench-smoke path:
// a tiny bench sweep must emit a parseable, schema-valid report that
// -bench-verify then accepts.
func TestRunBenchWritesVerifiableReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_sim.json")
	err := run([]string{
		"-exp", "bench",
		"-bench-hosts", "48,64",
		"-bench-workers", "1,2",
		"-bench-tasks", "5",
		"-bench-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report adapt.BenchReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	if err := report.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 4 {
		t.Fatalf("runs = %d, want 4 (2 hosts x 2 worker counts)", len(report.Runs))
	}
	if err := run([]string{"-bench-verify", out}); err != nil {
		t.Fatalf("bench-verify rejected a fresh report: %v", err)
	}
}

func TestBenchVerifyRejects(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-bench-verify", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing report accepted")
	}
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte(`{"schema":"wrong/v0","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench-verify", garbled}); err == nil {
		t.Fatal("wrong-schema report accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 1, 2,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
	if got, err := parseInts(""); err != nil || got != nil {
		t.Fatalf("empty list: %v %v", got, err)
	}
}

// TestRunUnknownExperiment: the retired svc/meta/load harness ids fail
// exactly like any other id the binary does not know.
func TestRunUnknownExperiment(t *testing.T) {
	for _, id := range []string{"bogus", "svc", "meta", "load"} {
		err := run([]string{"-exp", id})
		if want := fmt.Sprintf("unknown experiment %q", id); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-exp %s: err = %v, want %s", id, err, want)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCPUProfileFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cpu.prof")
	if err := run([]string{"-exp", "defaults", "-cpuprofile", out}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
	if err := run([]string{"-exp", "defaults", "-cpuprofile", filepath.Join(out, "no-such-dir", "x")}); err == nil {
		t.Fatal("unwritable profile path accepted")
	}
}
