package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDiags and deadcodeDiags cache the two fixture modules'
// findings once per test binary: testdata/src is a library, and
// testdata/deadcode has the main that deadcode needs.
var fixtureDiags, deadcodeDiags []Diagnostic

func loadFixtures(t *testing.T) []Diagnostic {
	t.Helper()
	return lintFixture(t, &fixtureDiags, "src")
}

func lintFixture(t *testing.T, cache *[]Diagnostic, module string) []Diagnostic {
	t.Helper()
	if *cache != nil {
		return *cache
	}
	diags, err := runLint(filepath.Join("testdata", module))
	if err != nil {
		t.Fatalf("runLint(testdata/%s): %v", module, err)
	}
	*cache = diags
	return diags
}

// TestAnalyzersGolden proves each analyzer fires on its fixture
// package and stays quiet everywhere else: the full diagnostic set is
// compared line-for-line against the per-analyzer golden files, so an
// extra finding is as much a failure as a missing one. lockcheck's
// acquisition-graph rules keep golden files of their own (see
// lockcheckRules); the lockcheck file holds the rest of its findings.
// Every finding in the deadcode module, its stale directive's
// included, is pinned in deadcode.txt; the library module has no main
// and so no deadcode findings.
func TestAnalyzersGolden(t *testing.T) {
	diags := loadFixtures(t)
	byGolden := make(map[string][]string)
	for _, d := range diags {
		byGolden[goldenName(d)] = append(byGolden[goldenName(d)], d.format())
	}
	dead := lintFixture(t, &deadcodeDiags, "deadcode")
	for _, d := range dead {
		byGolden["deadcode"] = append(byGolden["deadcode"], d.format())
	}
	var names []string
	for _, a := range analyzers() {
		names = append(names, a.Name)
	}
	for _, r := range lockcheckRules {
		names = append(names, r.golden)
	}
	seen := 0
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			goldenPath := filepath.Join("testdata", "golden", name+".txt")
			raw, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			want := strings.TrimRight(string(raw), "\n")
			if want == "" {
				t.Fatalf("golden file %s is empty: every analyzer must demonstrably fire on a fixture", goldenPath)
			}
			got := strings.Join(byGolden[name], "\n")
			if got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s\n--- want (%s) ---\n%s", got, goldenPath, want)
			}
		})
		seen += len(byGolden[name])
	}
	if seen != len(diags)+len(dead) {
		t.Errorf("%d diagnostics from unknown analyzers", len(diags)+len(dead)-seen)
	}
}

// lockcheckRules names the lockcheck rules whose findings are pinned in
// a golden file of their own, each recognised by a phrase of its
// message: the lock-order cycle rule and the shard leaf-lock rule.
var lockcheckRules = []struct{ golden, phrase string }{
	{"lockorder", "lock-order cycle among"},
	{"shardlock", "shard locks are leaves"},
}

// goldenName is the golden file, without extension, that pins d.
func goldenName(d Diagnostic) string {
	if d.Analyzer == "lockcheck" {
		for _, r := range lockcheckRules {
			if strings.Contains(d.Message, r.phrase) {
				return r.golden
			}
		}
	}
	return d.Analyzer
}

// TestSuppression proves the //lint:ignore mechanism end to end: the
// fixtures contain a suppressed time.Now (internal/sim), a suppressed
// float equality (internal/model), and a suppressed time.Sleep source
// (internal/util.BlessedDelay) whose taint must not reach its scoped
// caller. None may surface.
func TestSuppression(t *testing.T) {
	for _, d := range loadFixtures(t) {
		if d.Pos.Filename == "internal/sim/sim.go" && strings.Contains(d.Message, "time.Now") && d.Pos.Line > 15 {
			t.Errorf("suppressed determinism finding surfaced: %s", d.format())
		}
		if d.Pos.Filename == "internal/model/model.go" && d.Pos.Line > 28 {
			t.Errorf("suppressed floateq finding surfaced: %s", d.format())
		}
		if strings.Contains(d.Message, "BlessedDelay") {
			t.Errorf("suppressed source tainted a caller: %s", d.format())
		}
	}
}

// TestCleanFunctionsStayQuiet spot-checks that the fixtures' clean
// halves produce nothing: no diagnostics on the approved idioms.
func TestCleanFunctionsStayQuiet(t *testing.T) {
	cleanLines := map[string][2]int{
		// file -> [first line of clean-only region, last line]
		"internal/report/report.go": {46, 70}, // Sorted + Sum
		"internal/locks/locks.go":   {40, 86}, // approved disciplines, nested instances of one field
		"internal/dfs/dfs.go":       {45, 55}, // Wrapped + Classify
	}
	for _, d := range loadFixtures(t) {
		if r, ok := cleanLines[d.Pos.Filename]; ok && d.Pos.Line >= r[0] && d.Pos.Line <= r[1] {
			t.Errorf("clean fixture code flagged: %s", d.format())
		}
	}
}

// TestRepoIsClean runs the whole suite over the real module and
// requires zero findings — the ratchet that keeps the tree lint-clean
// forever. Skipped under -short (it type-checks the full repository).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-repo lint in -short mode")
	}
	diags, err := runLint(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("runLint(repo root): %v", err)
	}
	for _, d := range diags {
		t.Errorf("repository not lint-clean: %s", d.format())
	}
}

// TestListFlagNamesAllAnalyzers keeps the suite definition honest:
// exactly the ten documented analyzers, each with doc text.
func TestListFlagNamesAllAnalyzers(t *testing.T) {
	want := []string{
		"determinism", "errtaxonomy", "lockcheck",
		"ctxcheck", "atomiccheck", "floateq", "mapiter", "closecheck",
		"deadcode", "unusedignore",
	}
	got := analyzers()
	if len(got) != len(want) {
		t.Fatalf("analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}
