package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one project-specific check. Per-package analyzers set
// Run; whole-program analyzers (which need the call graph at once)
// set RunProgram and are invoked exactly once per lint run.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer
	// protects.
	Doc string
	// Run inspects one package and reports findings via the pass.
	Run func(p *Pass)
	// RunProgram inspects the whole program; the pass's Pkg is nil.
	RunProgram func(p *Pass)
}

// analyzers is the full suite, in reporting order. unusedignore is
// synthetic: its findings are computed by runLint after every other
// analyzer has had the chance to consume each //lint:ignore
// directive.
func analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		errtaxonomyAnalyzer(),
		lockcheckAnalyzer(),
		ctxcheckAnalyzer(),
		atomiccheckAnalyzer(),
		floateqAnalyzer(),
		mapiterAnalyzer(),
		closecheckAnalyzer(),
		deadcodeAnalyzer(),
		unusedignoreAnalyzer(),
	}
}

// unusedignoreAnalyzer is the suppression ratchet: a //lint:ignore
// directive that no longer masks any finding is dead documentation
// and must be deleted. Findings are synthesized in runLint once all
// real analyzers have run.
func unusedignoreAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "unusedignore",
		Doc:  "every //lint:ignore directive must still suppress a finding; stale ones must be deleted",
	}
}

// Diagnostic is one finding, positioned in the analyzed module.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Program is the whole-module analysis state shared by every pass:
// the loaded packages, the cross-package call graph, the cached
// function summaries, and the //lint:ignore directive index.
type Program struct {
	Fset  *token.FileSet
	Root  string
	Pkgs  []*Pkg
	Graph *CallGraph
	Sums  *summaries

	byPath     map[string]*Pkg
	directives []*ignoreDirective
	// memo slots for whole-program precomputations (atomiccheck).
	atomicVars map[*types.Var]token.Position
}

// ignoreDirective is one //lint:ignore <analyzer> <reason> comment. A
// directive suppresses findings of that analyzer on its own line and
// on the following line (trailing comment or standalone line above
// the offending statement).
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
	pos      token.Pos
	used     bool
}

// newProgram builds the shared analysis state over loaded packages.
func newProgram(root string, modPath string, fset *token.FileSet, pkgs []*Pkg) *Program {
	modulePrefixes = []string{modPath}
	prog := &Program{
		Fset:   fset,
		Root:   root,
		Pkgs:   pkgs,
		Graph:  buildCallGraph(pkgs),
		byPath: make(map[string]*Pkg, len(pkgs)),
	}
	prog.Sums = newSummaries(prog)
	for _, p := range pkgs {
		prog.byPath[p.ImportPath] = p
		prog.collectDirectives(p)
	}
	return prog
}

func (prog *Program) collectDirectives(p *Pkg) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// A directive without a reason is ignored; the
					// reason is mandatory documentation.
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				prog.directives = append(prog.directives, &ignoreDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					pos:      c.Pos(),
				})
			}
		}
	}
}

// directiveFor finds a live directive covering the given position for
// the named analyzer (same line, or directive on the line above).
func (prog *Program) directiveFor(pos token.Position, analyzer string) *ignoreDirective {
	for _, d := range prog.directives {
		if d.analyzer == analyzer && d.file == pos.Filename && (d.line == pos.Line || d.line == pos.Line-1) {
			return d
		}
	}
	return nil
}

// suppressSource reports whether a nondeterminism source (or other
// summary-level fact) at pos is blessed by a //lint:ignore directive;
// if so the directive counts as used and the source must not taint
// callers.
func (prog *Program) suppressSource(pos token.Pos, analyzer string) bool {
	d := prog.directiveFor(prog.Fset.Position(pos), analyzer)
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// Pass gives an analyzer access to one package (or the whole program,
// for RunProgram analyzers) plus a sink for diagnostics.
type Pass struct {
	Prog     *Program
	Pkg      *Pkg // nil for RunProgram passes
	Fset     *token.FileSet
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// inScope reports whether the package's module-relative path is equal
// to or nested under one of the prefixes.
func inScope(rel string, prefixes ...string) bool {
	for _, pre := range prefixes {
		if rel == pre || strings.HasPrefix(rel, pre+"/") {
			return true
		}
	}
	return false
}

// runLint loads the module at root and runs the whole suite,
// returning the surviving (unsuppressed) diagnostics sorted by
// position. Paths in the diagnostics are rewritten relative to root.
func runLint(root string) ([]Diagnostic, error) {
	diags, _, err := runLintProgram(root)
	return diags, err
}

// runLintProgram is runLint exposing the Program for tests of the
// analysis core.
func runLintProgram(root string) ([]Diagnostic, *Program, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, nil, err
	}
	prog := newProgram(l.Root(), l.modPath, l.Fset(), pkgs)

	var diags []Diagnostic
	suite := analyzers()
	for _, a := range suite {
		if a.RunProgram == nil {
			continue
		}
		var found []Diagnostic
		a.RunProgram(&Pass{Prog: prog, Fset: prog.Fset, analyzer: a, diags: &found})
		diags = append(diags, prog.filterSuppressed(found)...)
	}
	for _, pkg := range prog.Pkgs {
		for _, a := range suite {
			if a.Run == nil {
				continue
			}
			var found []Diagnostic
			a.Run(&Pass{Prog: prog, Pkg: pkg, Fset: prog.Fset, analyzer: a, diags: &found})
			diags = append(diags, prog.filterSuppressed(found)...)
		}
	}
	// The suppression ratchet runs last: any directive no analyzer
	// consumed is stale.
	for _, d := range prog.directives {
		if d.used {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(d.pos),
			Analyzer: "unusedignore",
			Message:  fmt.Sprintf("//lint:ignore %s no longer suppresses anything: delete the stale directive", d.analyzer),
		})
	}

	for i := range diags {
		if rel, err := filepath.Rel(prog.Root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, prog, nil
}

// filterSuppressed drops findings covered by a matching //lint:ignore
// directive, marking each consumed directive used.
func (prog *Program) filterSuppressed(found []Diagnostic) []Diagnostic {
	out := found[:0]
	for _, d := range found {
		if dir := prog.directiveFor(d.Pos, d.Analyzer); dir != nil {
			dir.used = true
			continue
		}
		out = append(out, d)
	}
	return out
}

// relToRoot rewrites an absolute filename relative to the module root
// (slash-separated) for stable cross-machine diagnostics.
func relToRoot(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil {
		return filepath.ToSlash(rel)
	}
	return filename
}

// format renders a diagnostic in the suite's canonical
// file:line: [analyzer] message shape.
func (d Diagnostic) format() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// funcObj resolves a call to its *types.Func, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named top-level function of the
// named package.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}
