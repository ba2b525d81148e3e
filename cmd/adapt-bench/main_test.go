package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunUnknownExperiment: the retired svc/meta/load/bench harness ids
// fail exactly like any other id the binary does not know.
func TestRunUnknownExperiment(t *testing.T) {
	for _, id := range []string{"bogus", "svc", "meta", "load", "bench"} {
		err := run([]string{"-exp", id})
		if want := fmt.Sprintf("unknown experiment %q", id); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-exp %s: err = %v, want %s", id, err, want)
		}
	}
}

// TestRunBadFlag: the retired harness's -bench-* flags fail exactly like
// any other flag the binary does not define.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-bench-verify", "x.json"}} {
		err := run(args)
		if want := "flag provided but not defined: " + args[0]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %s", args, err, want)
		}
	}
}

// TestRunRejectsOutOfRange: -scale outside (0,1] and a negative -trials
// are errors that name the flag, not silent full-scale or default runs.
func TestRunRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "2"}, "-scale"},
		{[]string{"-scale", "-0.5"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-trials", "-1"}, "-trials"},
	} {
		args := append([]string{"-exp", "defaults"}, tc.args...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
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
