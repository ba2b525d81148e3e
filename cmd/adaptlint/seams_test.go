package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deadcodeSeamCeiling is the most //lint:ignore deadcode directives
// the module's non-test Go files may carry. Each one keeps in the
// program a function no program runs, so a change that adds one raises
// this number in the same diff, and says in the directive which test
// of another package or which ROADMAP item needs it. A function only
// its own package's tests call belongs in those tests instead.
const deadcodeSeamCeiling = 28

// TestDeadcodeSeamCeiling counts the deadcode directives in the
// module's production files: _test.go files, testdata (adaptlint's
// own fixtures among them), vendor and hidden directories are skipped,
// as the loader skips them.
func TestDeadcodeSeamCeiling(t *testing.T) {
	root := filepath.Join("..", "..")
	var seams []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//lint:ignore deadcode ") {
				seams = append(seams, fmt.Sprintf("%s:%d", path, i+1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seams) > deadcodeSeamCeiling {
		t.Fatalf("%d //lint:ignore deadcode directives in production files, ceiling %d: move a symbol only its own package's tests call into those tests, or raise deadcodeSeamCeiling with the reason\n%s",
			len(seams), deadcodeSeamCeiling, strings.Join(seams, "\n"))
	}
	if len(seams) < deadcodeSeamCeiling {
		t.Logf("%d deadcode directives, below the ceiling of %d: lower deadcodeSeamCeiling to match", len(seams), deadcodeSeamCeiling)
	}
}
