package main

import (
	"fmt"
	"io"
	"strings"
)

// writeDiagnostics renders diags to w in the named format:
//
//	text    file:line: [analyzer] message   (the historical default)
//	github  GitHub Actions workflow commands, which the Actions runner
//	        turns into inline PR annotations
func writeDiagnostics(w io.Writer, format string, diags []Diagnostic) error {
	switch format {
	case "text":
		for _, d := range diags {
			fmt.Fprintln(w, d.format())
		}
		return nil
	case "github":
		for _, d := range diags {
			fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=adaptlint %s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		}
		return nil
	}
	return fmt.Errorf("unknown format %q (want text or github)", format)
}

// githubEscape encodes the characters the workflow-command grammar
// reserves in message data.
func githubEscape(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}
