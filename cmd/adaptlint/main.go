package main

import (
	"flag"
	"fmt"
	"os"
)

// Exit codes: 0 clean, 1 findings, 2 operational failure (parse or
// type-check error, bad root, bad flags).
func main() {
	root := flag.String("root", ".", "module root to analyze (directory containing go.mod)")
	list := flag.Bool("list", false, "list the analyzers and the invariants they protect, then exit")
	format := flag.String("format", "text", "output format: text or github (Actions annotations)")
	flag.Parse()

	if *list {
		for _, a := range analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	diags, err := runLint(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptlint:", err)
		os.Exit(2)
	}
	if err := writeDiagnostics(os.Stdout, *format, diags); err != nil {
		fmt.Fprintln(os.Stderr, "adaptlint:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "adaptlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
