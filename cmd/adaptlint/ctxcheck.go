package main

import (
	"go/ast"
	"go/types"
)

// ctxScope lists the packages whose blocking RPC/IO paths must thread
// context.Context end to end. The CLI layer (cmd/) is the process
// root and legitimately mints contexts; below it, a fresh
// context.Background() silently discards the caller's deadline and
// cancellation, which is how shutdown hangs and crash tests time out.
var ctxScope = []string{
	"internal/svc",
	"internal/dfs",
}

// ctxcheckAnalyzer flags context.Background() and context.TODO() in
// the service and filesystem layers. One pattern is allowed: the
// lifecycle root context.WithCancel(context.Background()) at a
// component's construction, where the cancel func is the component's
// own stop handle. (WithTimeout(Background) is not exempt — a timeout
// without the caller's cancellation still outlives a shutdown — and
// neither is a context-free twin delegating to a context-taking
// sibling: every operation has one form, and it takes the ctx.)
// Everywhere else the fix is to accept a ctx parameter or use the
// owning component's lifecycle context.
//
// The analyzer additionally flags wire-crossing call sites (the RPC
// and stream chokepoints named in wireFuncNames, plus Client methods)
// handed a context that provably carries no deadline: a local chain
// of context.WithCancel / context.WithValue over Background/TODO. A
// lifecycle root may own goroutines, but crossing the network without
// a budget means one gray peer can stall the call forever — the fix
// is context.WithTimeout at the boundary. Contexts of unknown
// provenance (parameters, struct fields like s.lifeCtx, other calls)
// are exempt: the caller may well have set a deadline.
func ctxcheckAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "ctxcheck",
		Doc:  "svc/dfs must thread context.Context; no context.Background()/TODO() below the CLI layer",
	}
	a.Run = func(p *Pass) {
		if !inScope(p.Pkg.Rel, ctxScope...) {
			return
		}
		for _, f := range p.Pkg.Files {
			checkCtxFile(p, f)
		}
	}
	return a
}

func checkCtxFile(p *Pass, f *ast.File) {
	info := p.Pkg.Info
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		checkDeadlineFreeRPC(p, info, fd)
		ctxParam := contextParamName(info, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Allow WithCancel(Background()) lifecycle roots by not
			// descending into the argument of a WithCancel call.
			if fn := funcObj(info, call); isPkgFunc(fn, "context", "WithCancel") {
				if len(call.Args) == 1 && isBackgroundCall(info, call.Args[0]) != "" {
					return false
				}
				return true
			}
			if name := isBackgroundCall(info, call); name != "" {
				if ctxParam != "" {
					p.Reportf(call.Pos(), "context.%s() drops the in-scope ctx parameter %q: thread it instead", name, ctxParam)
				} else {
					p.Reportf(call.Pos(), "context.%s() below the CLI layer discards caller cancellation: accept a ctx parameter or use the component's lifecycle context", name)
				}
				return false
			}
			return true
		})
	}
}

// wireFuncNames lists the svc/dfs functions and methods where a call
// leaves the process: the one dial, the connections an owner acquires
// (parked or dialed) and opens exchanges on, the pipeline/read stream
// clients, the RPC chokepoints (the pool's call and the owners' call
// wrappers over it), and the pipeline-put store interface. Client
// methods (receiver type Client) are matched by receiver instead of by
// name.
var wireFuncNames = map[string]bool{
	"dial":        true,
	"acquireConn": true,
	"openStream":  true,
	"pipelinePut": true,
	"streamGet":   true,
	"call":        true,
	"PutChain":    true,
}

// isWireCall reports whether fn is a wire-crossing chokepoint in one
// of the ctxScope packages.
func isWireCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	rel, ok := cutModulePrefix(fn.Pkg().Path())
	if !ok || !inScope(rel, ctxScope...) {
		return false
	}
	if wireFuncNames[fn.Name()] {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	return isNamed && named.Obj().Name() == "Client"
}

// checkDeadlineFreeRPC flags wire-crossing calls inside fd whose
// context argument provably has no deadline. Only local derivation
// chains the function itself built are judged; anything that could
// carry a caller's deadline passes.
func checkDeadlineFreeRPC(p *Pass, info *types.Info, fd *ast.FuncDecl) {
	origins := collectCtxOrigins(info, fd.Body)
	resolved := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(info, call)
		if !isWireCall(fn) || len(call.Args) == 0 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if tv, ok := info.Types[arg]; !ok || !isContextType(tv.Type) {
			return true
		}
		// A literal Background()/TODO() argument is already reported by
		// the mint check; re-reporting it here would double up.
		if isBackgroundCall(info, arg) != "" {
			return true
		}
		if exprDeadlineFree(info, arg, origins, resolved) {
			p.Reportf(call.Pos(), "%s crosses the wire with a context that has no deadline: derive a budget with context.WithTimeout before the call", fn.Name())
		}
		return true
	})
}

// collectCtxOrigins indexes every assignment to a local context
// variable in body. A variable assigned more than once is judged by
// all of its origins (deadline-free only if every assignment is).
func collectCtxOrigins(info *types.Info, body *ast.BlockStmt) map[*types.Var][]ast.Expr {
	origins := make(map[*types.Var][]ast.Expr)
	record := func(id *ast.Ident, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || !isContextType(v.Type()) {
			return
		}
		origins[v] = append(origins[v], rhs)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			// ctx, cancel := context.WithCancel(parent): the context is
			// the call's first result; judge it by the call itself.
			if id, isIdent := as.Lhs[0].(*ast.Ident); isIdent {
				record(id, as.Rhs[0])
			}
			return true
		}
		for i := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			if id, isIdent := as.Lhs[i].(*ast.Ident); isIdent {
				record(id, as.Rhs[i])
			}
		}
		return true
	})
	return origins
}

// exprDeadlineFree reports whether expr provably evaluates to a
// deadline-free context: Background/TODO, or WithCancel/WithValue
// over a deadline-free parent. Unknown provenance — parameters,
// selectors, other calls (including WithTimeout/WithDeadline) — is
// not deadline-free.
func exprDeadlineFree(info *types.Info, expr ast.Expr, origins map[*types.Var][]ast.Expr, resolved map[*types.Var]bool) bool {
	expr = ast.Unparen(expr)
	if isBackgroundCall(info, expr) != "" {
		return true
	}
	switch e := expr.(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		if free, done := resolved[v]; done {
			return free
		}
		srcs := origins[v]
		if len(srcs) == 0 {
			return false // parameter, closure capture, or field: unknown
		}
		resolved[v] = false // cycle guard: self-reference is unknown
		free := true
		for _, src := range srcs {
			if !exprDeadlineFree(info, src, origins, resolved) {
				free = false
				break
			}
		}
		resolved[v] = free
		return free
	case *ast.CallExpr:
		fn := funcObj(info, e)
		if (isPkgFunc(fn, "context", "WithCancel") || isPkgFunc(fn, "context", "WithValue")) && len(e.Args) > 0 {
			return exprDeadlineFree(info, e.Args[0], origins, resolved)
		}
		return false
	default:
		return false
	}
}

// isBackgroundCall reports "Background" or "TODO" if expr is a call to
// that context constructor, else "".
func isBackgroundCall(info *types.Info, expr ast.Expr) string {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := funcObj(info, call)
	if isPkgFunc(fn, "context", "Background") {
		return "Background"
	}
	if isPkgFunc(fn, "context", "TODO") {
		return "TODO"
	}
	return ""
}

// contextParamName returns the name of fd's first context.Context
// parameter, or "" if it has none (or only a blank one).
func contextParamName(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Type.Params == nil {
		return ""
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
