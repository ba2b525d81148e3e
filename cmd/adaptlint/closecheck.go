package main

import (
	"go/ast"
	"go/types"
)

// closecheckAnalyzer guards close-path durability repo-wide: when a
// Close method returns an error, dropping that error silently can
// mask a failed flush — for a WAL or snapshot file, the write the
// caller already acknowledged. Three discarding shapes are flagged:
//
//   - a bare expression statement `f.Close()`;
//   - `defer f.Close()`;
//   - `go f.Close()`.
//
// The approved idioms are untouched: checking the error
// (`if err := f.Close(); err != nil`), folding it into a named
// return, or discarding it explicitly with `_ = f.Close()` — the
// blank assignment documents that best-effort cleanup is intended
// (the teardown-after-failure pattern). Close methods that return
// nothing (teardown like svc.Client.Close) never trigger.
func closecheckAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "closecheck",
		Doc:  "a Close() error must be checked or explicitly discarded with _ =; silent drops can mask a failed flush",
	}
	a.Run = func(p *Pass) {
		info := p.Pkg.Info
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				var how string
				switch st := n.(type) {
				case *ast.ExprStmt:
					call, _ = st.X.(*ast.CallExpr)
					how = "silently dropped"
				case *ast.DeferStmt:
					call = st.Call
					how = "dropped by defer"
				case *ast.GoStmt:
					call = st.Call
					how = "dropped in a goroutine"
				default:
					return true
				}
				if call == nil {
					return true
				}
				fn := funcObj(info, call)
				if fn == nil || fn.Name() != "Close" {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil || !returnsError(sig) {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				p.Reportf(call.Pos(), "error from %s.Close() is %s: check it or discard explicitly with _ =",
					exprString(p.Fset, sel.X), how)
				return true
			})
		}
	}
	return a
}

// returnsError reports whether any result of the signature is the
// built-in error type.
func returnsError(sig *types.Signature) bool {
	errType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}
