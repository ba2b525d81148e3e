package main

import (
	"go/ast"
	"go/types"
	"sort"
)

// deadcodeAnalyzer is the reachability ratchet: every function or
// method that no program can run is reported at its declaration. It is
// a breadth-first walk over the call graph (static, ref and dynamic
// edges) from these roots:
//
//   - every main, and every init, of the module;
//   - every function a package-level var initializer names or calls;
//   - every exported function and method declared in the module's root
//     package, which is the public surface.
//
// The standard library calls back into module code the graph cannot
// see: fmt calls String, sort calls Less, json calls MarshalJSON, io.Copy
// calls Write. So a method is also kept when its receiver type is
// mentioned in reachable code (directly, or as an element or field of a
// type that is) and the method implements a method of an interface
// declared in a standard-library package the module imports, or of
// error; an error's Unwrap, Is and As, which errors calls, are kept too.
//
// A module with no main is a library and gets no findings. A test seam
// (a fault injector, a probe, an oracle a property test compares
// against) stays by carrying a //lint:ignore deadcode directive with
// its reason, so the seams are counted in the source; the functions
// only a seam calls are part of it and need no directive of their own.
func deadcodeAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "deadcode",
		Doc:  "every function must be reachable from a main, an init, a package-level var or the root package's exports; test seams say so with //lint:ignore",
	}
	a.RunProgram = func(p *Pass) {
		g := p.Prog.Graph
		roots := deadcodeRoots(p.Prog)
		if roots == nil {
			return
		}
		fns := make([]*types.Func, 0, len(g.Decl))
		for fn := range g.Decl {
			fns = append(fns, fn)
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
		// A seam is an unreached function that carries a directive. What
		// it calls belongs to it, so a second walk roots the seams too;
		// the seams themselves are still reported, for their directives
		// to consume.
		live := reachableFuncs(p.Prog, roots)
		seam := make(map[*types.Func]bool)
		for _, fn := range fns {
			if !live[fn] && p.Prog.directiveFor(p.Fset.Position(g.Decl[fn].Pos()), a.Name) != nil {
				seam[fn] = true
				roots = append(roots, fn)
			}
		}
		if len(seam) > 0 {
			live = reachableFuncs(p.Prog, roots)
		}
		for _, fn := range fns {
			if live[fn] && !seam[fn] {
				continue
			}
			p.Reportf(g.Decl[fn].Pos(), "%s is reached from no main, init or package-level var: delete it, or mark a test seam with //lint:ignore deadcode <reason>", funcDisplayName(fn))
		}
	}
	return a
}

// deadcodeRoots returns the functions a program starts from, or nil
// when the module has no main package.
func deadcodeRoots(prog *Program) []*types.Func {
	var roots []*types.Func
	hasMain := false
	for _, p := range prog.Pkgs {
		isMain := p.Types.Name() == "main"
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
				switch {
				case fd.Recv == nil && fd.Name.Name == "init",
					p.Rel == "" && fd.Name.IsExported():
					roots = append(roots, fn)
				case isMain && fd.Recv == nil && fd.Name.Name == "main":
					roots = append(roots, fn)
					hasMain = true
				}
			}
		}
	}
	if !hasMain {
		return nil
	}
	for _, e := range prog.Graph.VarInit {
		roots = append(roots, e.Callee)
	}
	return roots
}

// reachableFuncs walks the call graph from roots, then keeps the
// methods the standard library may call on types reachable code
// mentions, and walks on from those, until nothing new is reached.
func reachableFuncs(prog *Program, roots []*types.Func) map[*types.Func]bool {
	g := prog.Graph
	live := make(map[*types.Func]bool)
	mentioned := make(map[*types.Named]bool)
	var queue []*types.Func
	visit := func(fn *types.Func) {
		if !live[fn] {
			live[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, fn := range roots {
		visit(fn)
	}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					prog.mentionTypes(p.Info, gd, mentioned)
				}
			}
		}
	}
	std := prog.stdInterfaces()
	for len(queue) > 0 {
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			for _, e := range g.ByCaller[fn] {
				visit(e.Callee)
			}
			if fd := g.Decl[fn]; fd != nil {
				prog.mentionTypes(g.PkgOf[fn].Info, fd, mentioned)
			}
		}
		for named := range mentioned {
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if _, declared := g.Decl[m]; declared && !live[m] && implementsStd(named, m, std) {
					visit(m)
				}
			}
		}
	}
	return live
}

// isLocal reports whether pkg is one of the analyzed module's packages.
func (prog *Program) isLocal(pkg *types.Package) bool {
	return pkg != nil && prog.byPath[pkg.Path()] != nil
}

// mentionTypes adds to set every module named type that is the type of
// an expression under n, and, through pointers, containers, struct
// fields and underlying types, every module named type inside it: the
// types whose values reachable code can hand to the standard library.
func (prog *Program) mentionTypes(info *types.Info, n ast.Node, set map[*types.Named]bool) {
	var add func(t types.Type)
	add = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if !prog.isLocal(t.Obj().Pkg()) || set[t] {
				return
			}
			set[t] = true
			add(t.Underlying())
		case *types.Pointer:
			add(t.Elem())
		case *types.Slice:
			add(t.Elem())
		case *types.Array:
			add(t.Elem())
		case *types.Chan:
			add(t.Elem())
		case *types.Map:
			add(t.Key())
			add(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				add(t.Field(i).Type())
			}
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				add(t.At(i).Type())
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				add(tv.Type)
			}
		}
		return true
	})
}

// stdInterfaces indexes by method name the interfaces declared in the
// standard-library packages the module imports, directly or not, plus
// error.
func (prog *Program) stdInterfaces() map[string][]*types.Interface {
	index := make(map[string][]*types.Interface)
	addIface := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			index[name] = append(index[name], iface)
		}
	}
	addIface(errorIface)
	seen := make(map[*types.Package]bool)
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
		if prog.isLocal(pkg) {
			return
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				addIface(iface)
			}
		}
	}
	for _, p := range prog.Pkgs {
		walk(p.Types)
	}
	return index
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errorsChain names the methods errors.Is, As and Unwrap call on an
// error through interface literals, which no package declares.
var errorsChain = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// implementsStd reports whether method m of named implements a method
// of one of the indexed standard-library interfaces, or is an error's
// chain method.
func implementsStd(named *types.Named, m *types.Func, std map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	implements := func(iface *types.Interface) bool {
		return types.Implements(named, iface) || types.Implements(ptr, iface)
	}
	if errorsChain[m.Name()] && implements(errorIface) {
		return true
	}
	for _, iface := range std[m.Name()] {
		if implements(iface) {
			return true
		}
	}
	return false
}
