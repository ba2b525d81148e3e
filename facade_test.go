package adapt_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The facade's exported API, rendered declaration by declaration
// (comments and bodies dropped), is pinned in testdata/api.golden, so
// any growth or shrinkage of the public surface shows up in review as a
// diff of that file.
//
//	go test . -run TestFacadeSurface -update
//
// rewrites it.

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from the facade's exported API")

const apiGolden = "testdata/api.golden"

// renderAPI renders the package's exported declarations in go/doc
// order: constants, variables, functions, then each type with its
// associated constants, variables, constructors and methods.
func renderAPI(t *testing.T) string {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "github.com/adaptsim/adapt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gofmt := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	decl := func(d ast.Decl) {
		if err := gofmt.Fprint(&buf, fset, d); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n\n")
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			decl(v.Decl)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl(f.Decl)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		decl(typ.Decl)
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	return buf.String()
}

func TestFacadeSurface(t *testing.T) {
	got := renderAPI(t)
	if *updateAPI {
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", apiGolden)
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s; if the change is meant, rewrite it with -update so review sees the diff\n--- got ---\n%s", apiGolden, got)
	}
}
