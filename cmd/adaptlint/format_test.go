package main

import (
	"bytes"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/sim/sim.go", Line: 13, Column: 23},
			Analyzer: "determinism",
			Message:  "uses time.Now: seeded packages run in virtual time; wall-clock reads break seed replay",
		},
		{
			Pos:      token.Position{Filename: "internal/svc/ctx.go", Line: 14, Column: 9},
			Analyzer: "ctxcheck",
			Message:  "context.Background() below the CLI layer\nwith 100% certainty",
		},
	}
}

// TestGitHubFormat checks the workflow-command shape and that message
// data is escaped (a raw newline or % would truncate or corrupt the
// annotation).
func TestGitHubFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := writeDiagnostics(&buf, "github", sampleDiags()); err != nil {
		t.Fatalf("writeDiagnostics(github): %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d annotation lines, want 2:\n%s", len(lines), buf.String())
	}
	shape := regexp.MustCompile(`^::error file=[^,]+,line=\d+,col=\d+,title=adaptlint [a-z]+::.+$`)
	for _, line := range lines {
		if !shape.MatchString(line) {
			t.Errorf("annotation does not match workflow-command shape: %q", line)
		}
	}
	if !strings.Contains(lines[1], "%0A") || !strings.Contains(lines[1], "%25") {
		t.Errorf("newline/percent not escaped: %q", lines[1])
	}
}

// TestTextFormat pins the historical default shape other tooling greps
// for.
func TestTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := writeDiagnostics(&buf, "text", sampleDiags()[:1]); err != nil {
		t.Fatalf("writeDiagnostics(text): %v", err)
	}
	want := "internal/sim/sim.go:13: [determinism] uses time.Now: seeded packages run in virtual time; wall-clock reads break seed replay\n"
	if buf.String() != want {
		t.Errorf("text output = %q, want %q", buf.String(), want)
	}
}

// TestUnknownFormatRejected keeps the flag surface honest.
func TestUnknownFormatRejected(t *testing.T) {
	if err := writeDiagnostics(&bytes.Buffer{}, "xml", nil); err == nil {
		t.Error("unknown format accepted")
	}
}
