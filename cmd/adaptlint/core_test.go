package main

import (
	"go/types"
	"path/filepath"
	"testing"
)

// fixtureProgram loads the fixture module's whole-program state once
// per test binary (separate from the diagnostic cache: these tests
// poke at the Program itself).
var cachedProg *Program

func loadProgram(t *testing.T) *Program {
	t.Helper()
	if cachedProg != nil {
		return cachedProg
	}
	_, prog, err := runLintProgram(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("runLintProgram(testdata/src): %v", err)
	}
	cachedProg = prog
	return prog
}

// findFunc resolves a function by its display name (the form the
// diagnostics use, e.g. "internal/graph.(*B).Work").
func findFunc(t *testing.T, prog *Program, display string) *types.Func {
	t.Helper()
	for fn := range prog.Graph.Decl {
		if funcDisplayName(fn) == display {
			return fn
		}
	}
	t.Fatalf("function %q not found in fixture call graph", display)
	return nil
}

// edgeKinds collects the out-edges of caller to callee, by kind.
func edgeKinds(prog *Program, caller, callee *types.Func) map[EdgeKind]int {
	kinds := make(map[EdgeKind]int)
	for _, e := range prog.Graph.ByCaller[caller] {
		if e.Callee == callee {
			kinds[e.Kind]++
		}
	}
	return kinds
}

// TestCallGraphCrossPackageStatic verifies a resolved cross-package
// call produces a static edge anchored in the caller.
func TestCallGraphCrossPackageStatic(t *testing.T) {
	prog := loadProgram(t)
	runCell := findFunc(t, prog, "internal/experiments.RunCell")
	jitter := findFunc(t, prog, "internal/util.Jitter")
	if edgeKinds(prog, runCell, jitter)[EdgeStatic] != 1 {
		t.Errorf("RunCell → Jitter: want exactly one static edge, got %v", edgeKinds(prog, runCell, jitter))
	}
	if prog.Graph.PkgOf[jitter].Rel != "internal/util" {
		t.Errorf("PkgOf(Jitter) = %q, want internal/util", prog.Graph.PkgOf[jitter].Rel)
	}
}

// TestCallGraphInterfaceDispatch verifies the conservative fallback:
// an interface call gets one dynamic edge per module-local
// implementation — value receivers, pointer receivers, and the
// tainted one alike.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadProgram(t)
	drive := findFunc(t, prog, "internal/graph.Drive")
	for _, impl := range []string{
		"internal/graph.A.Work",
		"internal/graph.(*B).Work",
		"internal/graph.Clocky.Work",
	} {
		target := findFunc(t, prog, impl)
		if edgeKinds(prog, drive, target)[EdgeDynamic] != 1 {
			t.Errorf("Drive → %s: want exactly one dynamic edge, got %v", impl, edgeKinds(prog, drive, target))
		}
	}
}

// TestCallGraphMethodValue verifies that a method value handed off
// without being called still produces a ref edge (soundness: the
// receiver of the value may invoke it later).
func TestCallGraphMethodValue(t *testing.T) {
	prog := loadProgram(t)
	handoff := findFunc(t, prog, "internal/graph.Handoff")
	work := findFunc(t, prog, "internal/graph.A.Work")
	if edgeKinds(prog, handoff, work)[EdgeRef] != 1 {
		t.Errorf("Handoff → A.Work: want exactly one ref edge, got %v", edgeKinds(prog, handoff, work))
	}
}

// TestTaintPropagation verifies summary-based taint: transitive
// through static edges and dynamic dispatch, absent for pure helpers,
// and killed at suppressed sources.
func TestTaintPropagation(t *testing.T) {
	prog := loadProgram(t)
	cases := []struct {
		display string
		tainted bool
	}{
		{"internal/util.backoff", true},         // direct source
		{"internal/util.Jitter", true},          // one static hop
		{"internal/graph.Clocky.Work", true},    // direct source
		{"internal/graph.Drive", true},          // via dynamic dispatch
		{"internal/util.Pure", false},           // no sources at all
		{"internal/util.BlessedDelay", false},   // suppressed source kills taint
		{"internal/experiments.RunPure", false}, // clean transitively
	}
	for _, c := range cases {
		fn := findFunc(t, prog, c.display)
		got := prog.Sums.taintOf(fn) != nil
		if got != c.tainted {
			t.Errorf("taintOf(%s) = %v, want %v", c.display, got, c.tainted)
		}
	}
	// The witness path names the chain end to end.
	jitter := findFunc(t, prog, "internal/util.Jitter")
	if want, got := "internal/util.Jitter → internal/util.backoff → time.Sleep", prog.Sums.taintPath(jitter); got != want {
		t.Errorf("taintPath(Jitter) = %q, want %q", got, want)
	}
}

// TestSummaryCacheInvalidation verifies InvalidatePackage drops the
// per-package summary cache and the derived whole-program closures,
// and that recomputation restores identical results.
func TestSummaryCacheInvalidation(t *testing.T) {
	prog := loadProgram(t)
	utilPath := ""
	for _, p := range prog.Pkgs {
		if p.Rel == "internal/util" {
			utilPath = p.ImportPath
		}
	}
	if utilPath == "" {
		t.Fatal("internal/util not loaded")
	}
	jitter := findFunc(t, prog, "internal/util.Jitter")
	before := prog.Sums.taintPath(jitter)
	if _, cached := prog.Sums.byPkg[utilPath]; !cached {
		t.Fatal("util summaries not cached after taint query")
	}

	prog.InvalidatePackage(utilPath)
	if _, cached := prog.Sums.byPkg[utilPath]; cached {
		t.Error("InvalidatePackage left the per-package cache entry")
	}
	if prog.Sums.taint != nil {
		t.Error("InvalidatePackage left the derived taint closure")
	}

	// Demand recomputes from source and reaches the same fixpoint.
	if after := prog.Sums.taintPath(jitter); after != before {
		t.Errorf("taint path changed across invalidation: %q → %q", before, after)
	}
	if _, cached := prog.Sums.byPkg[utilPath]; !cached {
		t.Error("recomputation did not repopulate the per-package cache")
	}
}

// TestAcquireClosure verifies the transitive lock-summary closure that
// lockcheck's acquisition graph consumes: AB's closure contains both
// locks (bmu arriving through lockB), Nest's contains its pair, and
// Pure-style functions have none.
func TestAcquireClosure(t *testing.T) {
	prog := loadProgram(t)
	ab := findFunc(t, prog, "internal/deadlock.(*D).AB")
	acq := prog.Sums.acquiresOf(ab)
	for _, id := range []string{"internal/deadlock.D.amu", "internal/deadlock.D.bmu"} {
		if _, ok := acq[id]; !ok {
			t.Errorf("acquiresOf(AB) missing %s (have %v)", id, acq)
		}
	}
	pure := findFunc(t, prog, "internal/util.Pure")
	if got := prog.Sums.acquiresOf(pure); len(got) != 0 {
		t.Errorf("acquiresOf(Pure) = %v, want empty", got)
	}
}

// InvalidatePackage drops the cached summaries of one package (by
// import path) and every whole-program result derived from them (the
// taint closure, the lock closures). The next analyzer demand
// recomputes.
func (prog *Program) InvalidatePackage(importPath string) {
	delete(prog.Sums.byPkg, importPath)
	prog.Sums.taint = nil
	prog.Sums.acqClosure = nil
}
