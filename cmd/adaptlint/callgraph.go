package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EdgeKind classifies how a call-graph edge was discovered.
type EdgeKind int

const (
	// EdgeStatic is a direct call whose target the type checker
	// resolves exactly: a top-level function call or a method call on
	// a concrete receiver.
	EdgeStatic EdgeKind = iota
	// EdgeRef is a reference to a function that is not the operand of
	// a call: a method value, a function passed as an argument, or a
	// function assigned to a variable or field. The referencing
	// function may invoke it, so analyses that need soundness treat
	// EdgeRef like a call.
	EdgeRef
	// EdgeDynamic is the conservative fallback for interface-method
	// calls: one edge per module-local concrete method that the type
	// checker proves can stand behind the interface at that call
	// site. Dynamic edges over-approximate — a given edge may never
	// execute — so precision-sensitive analyses may skip them.
	EdgeDynamic
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeRef:
		return "ref"
	case EdgeDynamic:
		return "dynamic"
	}
	return "unknown"
}

// CallSite is one edge of the call graph, anchored at the position in
// the caller where the callee is named. Caller is nil for an edge out
// of a package-level var initializer.
type CallSite struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
	Kind   EdgeKind
}

// CallGraph is the whole-module call graph over declared functions and
// methods. Nodes are *types.Func objects of functions declared in the
// analyzed module; edges into the standard library are not recorded
// (stdlib behavior is modeled by the analyzers' source lists instead).
// Function literals are attributed to their enclosing declaration, so
// a source inside `go func() { ... }()` taints the spawning function.
type CallGraph struct {
	// ByCaller lists out-edges per function, in source order.
	ByCaller map[*types.Func][]*CallSite
	// ByCallee lists in-edges per function.
	ByCallee map[*types.Func][]*CallSite
	// Decl maps a module function to its declaration; functions with
	// no body (declared in the module but implemented elsewhere) map
	// to a nil-body declaration.
	Decl map[*types.Func]*ast.FuncDecl
	// PkgOf maps a module function to its defining package.
	PkgOf map[*types.Func]*Pkg
	// VarInit lists the edges out of package-level var initializers,
	// which run when the package is initialized. They have no caller,
	// so they are kept here and not in ByCaller or ByCallee.
	VarInit []*CallSite
}

// buildCallGraph constructs the call graph for all loaded packages.
func buildCallGraph(pkgs []*Pkg) *CallGraph {
	g := &CallGraph{
		ByCaller: make(map[*types.Func][]*CallSite),
		ByCallee: make(map[*types.Func][]*CallSite),
		Decl:     make(map[*types.Func]*ast.FuncDecl),
		PkgOf:    make(map[*types.Func]*Pkg),
	}
	// Pass 1: register every declared function so interface dispatch
	// can enumerate module-local implementations.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Decl[fn] = fd
				g.PkgOf[fn] = p
			}
		}
	}
	impls := newImplFinder(pkgs)
	// Pass 2: walk every body and var initializer and record edges.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					caller, ok := p.Info.Defs[decl.Name].(*types.Func)
					if ok && decl.Body != nil {
						g.walkBody(p, caller, decl.Body, impls)
					}
				case *ast.GenDecl:
					if decl.Tok == token.VAR {
						g.walkBody(p, nil, decl, impls)
					}
				}
			}
		}
	}
	return g
}

// walkBody records edges for one function body, or for a package-level
// var declaration when caller is nil. Call operands produce EdgeStatic
// (or EdgeDynamic for interface methods); any other reference to a
// function object produces EdgeRef.
func (g *CallGraph) walkBody(p *Pkg, caller *types.Func, body ast.Node, impls *implFinder) {
	info := p.Info
	// callOperands marks identifiers that appear as the function
	// operand of a call, so the same identifier is not double-counted
	// as a reference.
	callOperands := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		callOperands[id] = true
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		g.addCallEdges(p, caller, fn, id.Pos(), impls)
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callOperands[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		// Only module-declared functions are graph nodes; stdlib
		// references are the analyzers' business (source lists).
		if _, declared := g.Decl[fn]; declared {
			g.addEdge(&CallSite{Caller: caller, Callee: fn, Pos: id.Pos(), Kind: EdgeRef})
		}
		return true
	})
}

// addCallEdges records the edge(s) for one resolved call operand.
func (g *CallGraph) addCallEdges(p *Pkg, caller, fn *types.Func, pos token.Pos, impls *implFinder) {
	if isInterfaceMethod(fn) {
		for _, impl := range impls.implementations(fn) {
			g.addEdge(&CallSite{Caller: caller, Callee: impl, Pos: pos, Kind: EdgeDynamic})
		}
		return
	}
	if _, declared := g.Decl[fn]; declared {
		g.addEdge(&CallSite{Caller: caller, Callee: fn, Pos: pos, Kind: EdgeStatic})
	}
}

func (g *CallGraph) addEdge(e *CallSite) {
	if e.Caller == nil {
		g.VarInit = append(g.VarInit, e)
		return
	}
	g.ByCaller[e.Caller] = append(g.ByCaller[e.Caller], e)
	g.ByCallee[e.Callee] = append(g.ByCallee[e.Callee], e)
}

// isInterfaceMethod reports whether fn is declared on an interface
// type (so a call through it dispatches dynamically).
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return types.IsInterface(recv.Type())
}

// implFinder resolves interface methods to the module-local concrete
// methods that can implement them, memoized per interface method.
type implFinder struct {
	// named lists every module-local defined (non-interface) type.
	named []*types.Named
	memo  map[*types.Func][]*types.Func
}

func newImplFinder(pkgs []*Pkg) *implFinder {
	f := &implFinder{memo: make(map[*types.Func][]*types.Func)}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			f.named = append(f.named, named)
		}
	}
	return f
}

// implementations returns the concrete module-local methods that can
// stand behind interface method ifn, sorted for determinism.
func (f *implFinder) implementations(ifn *types.Func) []*types.Func {
	if out, ok := f.memo[ifn]; ok {
		return out
	}
	recv := ifn.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		f.memo[ifn] = nil
		return nil
	}
	var out []*types.Func
	for _, named := range f.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifn.Pkg(), ifn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	f.memo[ifn] = out
	return out
}
