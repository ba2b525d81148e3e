package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// sourceKind classifies one ambient-nondeterminism source.
type sourceKind int

const (
	srcWallClock  sourceKind = iota // time.Now / time.Since / time.Until
	srcSleep                        // time.Sleep: an uncancellable wall-clock stall
	srcRandGlobal                   // math/rand(/v2) package-level generator functions
	srcRuntime                      // runtime.NumCPU / GOMAXPROCS / NumGoroutine
	srcMapOrder                     // order-sensitive float accumulation over a map range
)

// sourceUse is one occurrence of a nondeterminism source inside a
// function body.
type sourceUse struct {
	pos  token.Pos
	kind sourceKind
	desc string
}

// funcFacts is the per-function summary the interprocedural analyzers
// consume: which nondeterminism sources the body touches directly and
// which lock identities it acquires directly. Facts are computed once
// per package and cached; Program.InvalidatePackage drops them.
type funcFacts struct {
	sources  []sourceUse
	acquires []lockAcquire
}

// lockAcquire is one direct mutex acquisition, keyed by the lock's
// declaration-level identity (see lockIdentity).
type lockAcquire struct {
	id  string
	pos token.Pos
}

// wallClockFuncs and runtimeFuncs are the stdlib functions treated as
// nondeterminism sources. Seeded constructors (rand.New, rand.NewPCG,
// rand.NewSource) are NOT sources: a generator built from an explicit
// seed is exactly what the determinism contract wants. The
// package-level rand functions draw from the process-global generator
// and are.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}
var runtimeFuncs = map[string]bool{"NumCPU": true, "GOMAXPROCS": true, "NumGoroutine": true}
var randConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewSource": true, "NewZipf": true, "NewChaCha8": true,
}

// summaries computes and caches funcFacts per package.
type summaries struct {
	prog *Program
	// byPkg caches per-package fact maps, keyed by import path.
	byPkg map[string]map[*types.Func]*funcFacts
	// taint is the global backward-reachability fixpoint from source
	// functions; nil until first demanded.
	taint map[*types.Func]*taintStep
	// acqClosure memoizes transitive lock-acquisition sets.
	acqClosure map[*types.Func]map[string]token.Pos
}

// taintStep records why a function is tainted: either a direct source
// (via == nil) or a call edge leading one step closer to one.
type taintStep struct {
	src sourceUse
	via *CallSite // edge from this function toward the source; nil at the source itself
}

func newSummaries(prog *Program) *summaries {
	return &summaries{prog: prog, byPkg: make(map[string]map[*types.Func]*funcFacts)}
}

// factsFor returns the summary map for pkg, computing it on first use.
func (s *summaries) factsFor(p *Pkg) map[*types.Func]*funcFacts {
	if m, ok := s.byPkg[p.ImportPath]; ok {
		return m
	}
	m := make(map[*types.Func]*funcFacts)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			m[fn] = s.collectFacts(p, fd.Body)
		}
	}
	s.byPkg[p.ImportPath] = m
	return m
}

// collectFacts walks one body for direct sources and lock
// acquisitions. Sources covered by a //lint:ignore determinism
// directive are dropped here — a blessed source does not taint its
// callers — and the directive is marked used.
func (s *summaries) collectFacts(p *Pkg, body *ast.BlockStmt) *funcFacts {
	info := p.Info
	facts := &funcFacts{}
	addSource := func(pos token.Pos, kind sourceKind, desc string) {
		if s.prog.suppressSource(pos, "determinism") {
			return
		}
		facts.sources = append(facts.sources, sourceUse{pos: pos, kind: kind, desc: desc})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			fn, ok := info.Uses[n].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					addSource(n.Pos(), srcWallClock, "time."+fn.Name())
				} else if fn.Name() == "Sleep" {
					addSource(n.Pos(), srcSleep, "time.Sleep")
				}
			case "runtime":
				if runtimeFuncs[fn.Name()] {
					addSource(n.Pos(), srcRuntime, "runtime."+fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					addSource(n.Pos(), srcRandGlobal, fn.Pkg().Path()+"."+fn.Name())
				}
			}
		case *ast.SelectorExpr:
			fn, ok := info.Uses[n.Sel].(*types.Func)
			if ok && isMutexMethod(fn) && (fn.Name() == "Lock" || fn.Name() == "RLock") {
				if id := lockIdentity(p, n.X); id != "" {
					facts.acquires = append(facts.acquires, lockAcquire{id: id, pos: n.Pos()})
				}
			}
		case *ast.RangeStmt:
			if pos, ok := mapOrderAccumulation(info, n); ok {
				addSource(pos, srcMapOrder, "order-sensitive float accumulation over a map range")
			}
		}
		return true
	})
	return facts
}

// mapOrderAccumulation reports whether rng is a range over a map whose
// body folds floating-point values into an accumulator declared
// outside the loop (x += v and friends). Float addition is not
// associative, so the accumulated bits depend on Go's per-run random
// map order even though the loop "only sums".
func mapOrderAccumulation(info *types.Info, rng *ast.RangeStmt) (token.Pos, bool) {
	t := info.TypeOf(rng.X)
	if t == nil {
		return token.NoPos, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return token.NoPos, false
	}
	var found token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		asn, ok := n.(*ast.AssignStmt)
		if !ok || len(asn.Lhs) != 1 {
			return true
		}
		switch asn.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		id, ok := ast.Unparen(asn.Lhs[0]).(*ast.Ident)
		if !ok || !isFloat(info.TypeOf(id)) {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil || obj.Pos() >= rng.Pos() {
			return true // loop-local accumulator resets per iteration
		}
		found = asn.Pos()
		return false
	})
	return found, found.IsValid()
}

// lockIdentity names a mutex at declaration level so acquisitions of
// the same lock from different functions unify: a struct field lock is
// "pkg.Type.field", a package-level lock is "pkg.var". Locks that
// cannot be resolved to a field or package variable (locals, map
// entries) return "" and stay out of the lock-order graph — per-file
// lock instances of one field all share an identity anyway, which is
// why same-identity self-edges are not reported (shard locks aside).
func lockIdentity(p *Pkg, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj := p.Info.ObjectOf(e.Sel)
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.IsField() {
			if owner := fieldOwner(p, e); owner != "" {
				return owner + "." + v.Name()
			}
			return ""
		}
		if v.Pkg() != nil {
			return shortPkg(v.Pkg().Path()) + "." + v.Name()
		}
	case *ast.Ident:
		obj := p.Info.ObjectOf(e)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return ""
		}
		// Package-level mutexes unify; function locals do not escape
		// the function and are left to lockcheck's rules 1 and 2.
		if v.Parent() == v.Pkg().Scope() {
			return shortPkg(v.Pkg().Path()) + "." + v.Name()
		}
	}
	return ""
}

// fieldOwner resolves the defining named type of the selected field,
// e.g. "dfs.NameNode" for nn.mu.
func fieldOwner(p *Pkg, sel *ast.SelectorExpr) string {
	t := p.Info.TypeOf(sel.X)
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
}

// shortPkg trims the module prefix off an import path for compact lock
// and path names in diagnostics.
func shortPkg(path string) string {
	if rel, ok := cutModulePrefix(path); ok {
		return rel
	}
	return path
}

var modulePrefixes []string

// cutModulePrefix strips any registered module path prefix.
func cutModulePrefix(path string) (string, bool) {
	for _, pre := range modulePrefixes {
		if len(path) > len(pre)+1 && path[:len(pre)] == pre && path[len(pre)] == '/' {
			return path[len(pre)+1:], true
		}
	}
	return path, false
}

// taintOf returns the taint step for fn, or nil when no
// nondeterminism source is reachable from it. The closure is a
// backward BFS from every source function over all edge kinds, so the
// recorded witness path is a shortest one.
func (s *summaries) taintOf(fn *types.Func) *taintStep {
	if s.taint == nil {
		s.computeTaint()
	}
	return s.taint[fn]
}

func (s *summaries) computeTaint() {
	s.taint = make(map[*types.Func]*taintStep)
	var queue []*types.Func
	// Seed: every function with a direct (unsuppressed) source.
	for _, p := range s.prog.Pkgs {
		facts := s.factsFor(p)
		var fns []*types.Func
		for fn := range facts {
			fns = append(fns, fn)
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
		for _, fn := range fns {
			if len(facts[fn].sources) > 0 {
				s.taint[fn] = &taintStep{src: facts[fn].sources[0]}
				queue = append(queue, fn)
			}
		}
	}
	// Deterministic BFS order.
	sort.Slice(queue, func(i, j int) bool { return queue[i].FullName() < queue[j].FullName() })
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		step := s.taint[cur]
		in := append([]*CallSite(nil), s.prog.Graph.ByCallee[cur]...)
		sort.Slice(in, func(i, j int) bool { return in[i].Caller.FullName() < in[j].Caller.FullName() })
		for _, e := range in {
			if _, seen := s.taint[e.Caller]; seen {
				continue
			}
			s.taint[e.Caller] = &taintStep{src: step.src, via: e}
			queue = append(queue, e.Caller)
		}
	}
}

// taintPath renders the witness chain from fn to the source, e.g.
// "dfs.(*Client).ReadFile → dfs.RetryPolicy.wait → time.Sleep".
func (s *summaries) taintPath(fn *types.Func) string {
	var parts []string
	cur := fn
	for i := 0; i < 32; i++ {
		step := s.taintOf(cur)
		if step == nil {
			break
		}
		parts = append(parts, funcDisplayName(cur))
		if step.via == nil {
			parts = append(parts, step.src.desc)
			break
		}
		cur = step.via.Callee
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " → "
		}
		out += p
	}
	return out
}

// funcDisplayName renders a function with a module-relative package
// qualifier: "dfs.(*Client).ReadFile", "par.Workers".
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok {
				name = "(*" + named.Obj().Name() + ")." + name
			}
		} else if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return shortPkg(fn.Pkg().Path()) + "." + name
	}
	return name
}

// acquiresOf returns the transitive lock-acquisition set of fn over
// static and ref edges (dynamic interface edges are excluded: the
// over-approximation would invent orderings no execution performs).
// The map value is a witness position of the (possibly indirect)
// acquisition.
func (s *summaries) acquiresOf(fn *types.Func) map[string]token.Pos {
	if s.acqClosure == nil {
		s.acqClosure = make(map[*types.Func]map[string]token.Pos)
		s.computeAcquires()
	}
	return s.acqClosure[fn]
}

func (s *summaries) computeAcquires() {
	// Initialize with direct acquires.
	direct := make(map[*types.Func]map[string]token.Pos)
	var fns []*types.Func
	for _, p := range s.prog.Pkgs {
		facts := s.factsFor(p)
		var pkgFns []*types.Func
		for fn := range facts {
			pkgFns = append(pkgFns, fn)
		}
		sort.Slice(pkgFns, func(i, j int) bool { return pkgFns[i].FullName() < pkgFns[j].FullName() })
		for _, fn := range pkgFns {
			m := make(map[string]token.Pos)
			for _, a := range facts[fn].acquires {
				if _, ok := m[a.id]; !ok {
					m[a.id] = a.pos
				}
			}
			direct[fn] = m
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		s.acqClosure[fn] = cloneAcquires(direct[fn])
	}
	// Worklist fixpoint: propagate callee sets into callers.
	changed := true
	for changed {
		changed = false
		for _, fn := range fns {
			for _, e := range s.prog.Graph.ByCaller[fn] {
				if e.Kind == EdgeDynamic {
					continue
				}
				callee := s.acqClosure[e.Callee]
				for id := range callee {
					if _, ok := s.acqClosure[fn][id]; !ok {
						s.acqClosure[fn][id] = e.Pos
						changed = true
					}
				}
			}
		}
	}
}

func cloneAcquires(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
