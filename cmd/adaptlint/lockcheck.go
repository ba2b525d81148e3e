package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// lockcheckAnalyzer is the one mutex analyzer. It walks every function
// once, replays which locks are held at each event, and enforces four
// rules:
//
//  1. every sync.Mutex/RWMutex Lock (or RLock) has its matching Unlock
//     (or RUnlock) on the same lock expression somewhere in the same
//     function — deferred, called on every path, or escaping as a
//     method value (the lockFile pattern that returns the unlock);
//  2. no lock is held across a FaultInjector hook call (FailOp,
//     CorruptRead): injectors run arbitrary user code and must be
//     consulted outside the DataNode's lock, or a chaos schedule can
//     deadlock or invert lock order;
//  3. the module-wide acquisition graph stays acyclic. A node is a
//     lock's declaration identity (struct field "pkg.Type.mu" or
//     package-level var "pkg.mu"); an edge A → B means some path
//     acquires B while holding A, directly or by calling (over static
//     and ref call-graph edges) a function whose transitive summary
//     acquires B. Two goroutines taking one pair of locks in opposite
//     orders deadlock, which is exactly a cycle;
//  4. shard locks are leaves: a mutex field of a type whose name ends
//     in "Shard" is never acquired while a lock of the same declaration
//     is held. Identities are declaration-level, so two instances of one
//     field are a self-edge. The graph drops self-edges (the per-file
//     lock pattern nests instances of one field on purpose) except on
//     shard locks, where two whole-namespace walks meeting in opposite
//     orders deadlock; shards are visited one at a time, ascending.
//
// The replay is a source-order approximation: a deferred Unlock holds
// the lock to function end; an explicit Unlock releases it for
// everything after it. Rules 1 and 2 match locks by printed receiver,
// locals included; rules 3 and 4 see only locks with an identity.
func lockcheckAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "lockcheck",
		Doc:  "every Lock needs a same-function Unlock, no lock is held across FaultInjector hooks, lock order stays acyclic, and shard locks are leaves",
	}
	a.RunProgram = func(p *Pass) {
		g := &lockGraph{edges: make(map[string]map[string]*lockEdge)}
		for _, pkg := range p.Prog.Pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						checkLocks(p, pkg, fn, fd.Body, g)
					}
				}
			}
		}
		for _, e := range g.leaves {
			p.Reportf(e.pos, "%s: shard locks are leaves — release the held shard, then visit shards one at a time in ascending index order", e.how)
		}
		reportLockCycles(p, g)
	}
	return a
}

// eventKind tags one lock-relevant occurrence in a function body.
type eventKind int

const (
	evLock        eventKind = iota // Lock / RLock
	evUnlock                       // Unlock / RUnlock, called or as a method value
	evDeferUnlock                  // defer x.Unlock(): held to function end
	evHook                         // FaultInjector hook call
	evCall                         // static or ref call-graph edge
)

// lockEvent is one occurrence, in source order. Mutex events carry the
// printed receiver ("s.mu") and the declaration identity, "" for a
// lock that has none (a local, a map entry).
type lockEvent struct {
	pos  token.Pos
	kind eventKind
	recv string
	id   string
	name string    // mutex method or hook name
	site *CallSite // evCall only
}

// heldLock is one receiver held at a point of the replay.
type heldLock struct {
	recv, id, method string
	sticky           bool // released only by a deferred unlock
}

// unlockOf maps acquire methods to their release counterparts.
var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkLocks walks one function body once and applies all four rules:
// rules 1 and 2 report directly, rules 3 and 4 feed the graph.
func checkLocks(p *Pass, pkg *Pkg, fn *types.Func, body *ast.BlockStmt, g *lockGraph) {
	events := collectLockEvents(p.Prog, pkg, fn, body)

	// Rule 1: every acquire needs some matching release reference.
	released := make(map[string]bool)
	for _, ev := range events {
		if ev.kind == evUnlock {
			released[ev.recv+"."+ev.name] = true
		}
	}
	for _, ev := range events {
		if want := unlockOf[ev.name]; ev.kind == evLock && !released[ev.recv+"."+want] {
			p.Reportf(ev.pos, "%s.%s() with no %s.%s in the same function: defer the unlock or release on every path", ev.recv, ev.name, ev.recv, want)
		}
	}

	var held []*heldLock // acquisition order
	find := func(recv string) int {
		return slices.IndexFunc(held, func(h *heldLock) bool { return h.recv == recv })
	}
	// heldIDs is the distinct identities held, in acquisition order.
	heldIDs := func() []string {
		var ids []string
		for _, h := range held {
			if h.id != "" && !slices.Contains(ids, h.id) {
				ids = append(ids, h.id)
			}
		}
		return ids
	}
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			if ev.id != "" {
				for _, h := range heldIDs() {
					g.add(&lockEdge{from: h, to: ev.id, pos: ev.pos,
						how: fmt.Sprintf("%s locks %s while holding %s", funcDisplayName(fn), ev.id, h)})
				}
			}
			if i := find(ev.recv); i >= 0 {
				held[i].method, held[i].sticky = ev.name, false
			} else {
				held = append(held, &heldLock{recv: ev.recv, id: ev.id, method: ev.name})
			}
		case evDeferUnlock:
			if i := find(ev.recv); i >= 0 {
				held[i].sticky = true
			}
		case evUnlock:
			if i := find(ev.recv); i >= 0 && !held[i].sticky {
				held = append(held[:i], held[i+1:]...)
			}
		case evHook:
			// Rule 2. Report the lexically first held lock so the message
			// does not depend on acquisition order.
			var first *heldLock
			for _, h := range held {
				if first == nil || h.recv < first.recv {
					first = h
				}
			}
			if first != nil {
				p.Reportf(ev.pos, "FaultInjector hook %s called while %s is %s-held: consult injectors outside the lock", ev.name, first.recv, first.method)
			}
		case evCall:
			ids := heldIDs()
			if len(ids) == 0 {
				continue
			}
			acq := p.Prog.Sums.acquiresOf(ev.site.Callee)
			tos := make([]string, 0, len(acq))
			for id := range acq {
				tos = append(tos, id)
			}
			sort.Strings(tos)
			for _, h := range ids {
				for _, to := range tos {
					g.add(&lockEdge{from: h, to: to, pos: ev.pos,
						how: fmt.Sprintf("%s calls %s (which acquires %s) while holding %s",
							funcDisplayName(fn), funcDisplayName(ev.site.Callee), to, h)})
				}
			}
		}
	}
}

// collectLockEvents gathers one function's mutex, hook and (static or
// ref) call events, sorted by position.
func collectLockEvents(prog *Program, p *Pkg, fn *types.Func, body *ast.BlockStmt) []lockEvent {
	info := p.Info
	sitesAt := make(map[token.Pos][]*CallSite)
	for _, e := range prog.Graph.ByCaller[fn] {
		if e.Kind != EdgeDynamic { // over-approximate dispatch would invent orderings
			sitesAt[e.Pos] = append(sitesAt[e.Pos], e)
		}
	}
	mutexEvent := func(pos token.Pos, kind eventKind, x ast.Expr, name string) lockEvent {
		return lockEvent{pos: pos, kind: kind, recv: exprString(prog.Fset, x), id: lockIdentity(p, x), name: name}
	}
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fnObj, ok := info.Uses[n.Sel].(*types.Func)
			if !ok {
				return true
			}
			if isMutexMethod(fnObj) {
				switch name := fnObj.Name(); name {
				case "Lock", "RLock":
					events = append(events, mutexEvent(n.Pos(), evLock, n.X, name))
				case "Unlock", "RUnlock":
					events = append(events, mutexEvent(n.Pos(), evUnlock, n.X, name))
				}
			}
			if isFaultInjectorHook(fnObj) {
				events = append(events, lockEvent{pos: n.Pos(), kind: evHook, name: fnObj.Name()})
			}
		case *ast.Ident:
			// A method call's site sits at its selector's identifier,
			// which the walk also visits as an Ident.
			for _, e := range sitesAt[n.Pos()] {
				events = append(events, lockEvent{pos: n.Pos(), kind: evCall, site: e})
			}
		case *ast.DeferStmt:
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
				if fnObj, ok := info.Uses[sel.Sel].(*types.Func); ok && isMutexMethod(fnObj) {
					if name := fnObj.Name(); name == "Unlock" || name == "RUnlock" {
						events = append(events, mutexEvent(n.Pos(), evDeferUnlock, sel.X, name))
					}
				}
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockEdge is one ordered acquisition A→B with the source position
// that witnesses it and a short explanation of how B is reached.
type lockEdge struct {
	from, to string
	pos      token.Pos
	how      string
}

// lockGraph maps each held lock to the locks acquired under it, and
// collects the shard-lock self-edges (rule 4) it refuses to add.
type lockGraph struct {
	edges  map[string]map[string]*lockEdge
	leaves []*lockEdge
}

func (g *lockGraph) add(e *lockEdge) {
	if e.from == e.to {
		if isShardLockID(e.to) {
			g.leaves = append(g.leaves, e)
		}
		return // another instance of the same declaration
	}
	m, ok := g.edges[e.from]
	if !ok {
		m = make(map[string]*lockEdge)
		g.edges[e.from] = m
	}
	if _, ok := m[e.to]; !ok {
		m[e.to] = e // keep the first witness (deterministic walk order)
	}
}

// isShardLockID reports whether a declaration-level lock identity
// ("pkg.Type.field") names a mutex owned by a shard type. The naming
// contract is deliberate: calling a type "…Shard" declares its locks
// leaf-per-shard and opts them into rule 4.
func isShardLockID(id string) bool {
	last := strings.LastIndexByte(id, '.')
	return last > 0 && strings.HasSuffix(id[:last], "Shard")
}

// reportLockCycles finds strongly connected components of two or more
// locks and reports each once, at its lexicographically first edge's
// witness, spelling out the full cycle.
func reportLockCycles(p *Pass, g *lockGraph) {
	nodes := make([]string, 0, len(g.edges))
	for n := range g.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, scc := range tarjanSCC(nodes, g) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		var hows []string
		var first *lockEdge
		for _, from := range scc {
			for _, to := range sortedSuccs(g, from) {
				if e := g.edges[from][to]; slices.Contains(scc, to) {
					if first == nil {
						first = e
					}
					hows = append(hows, fmt.Sprintf("%s → %s (%s at %s)", e.from, e.to, e.how, p.relPos(e.pos)))
				}
			}
		}
		p.Reportf(first.pos, "lock-order cycle among {%s}: %s — opposite-order acquisition can deadlock",
			strings.Join(scc, ", "), strings.Join(hows, "; "))
	}
}

func sortedSuccs(g *lockGraph, n string) []string {
	out := make([]string, 0, len(g.edges[n]))
	for to := range g.edges[n] {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

// relPos renders a position relative to the module root for stable
// diagnostics.
func (p *Pass) relPos(pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", relToRoot(p.Prog.Root, position.Filename), position.Line)
}

// tarjanSCC computes strongly connected components, iteratively, over
// the lock graph reachable from the given roots.
func tarjanSCC(roots []string, g *lockGraph) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		succ []string
		i    int
	}
	visit := func(root string) {
		var frames []frame
		push := func(n string) {
			index[n] = next
			low[n] = next
			next++
			stack = append(stack, n)
			onStack[n] = true
			frames = append(frames, frame{node: n, succ: sortedSuccs(g, n)})
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					push(w)
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Pop.
			n := f.node
			if low[n] == index[n] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[n] < low[parent.node] {
					low[parent.node] = low[n]
				}
			}
		}
	}
	for _, n := range roots {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return sccs
}

// isMutexMethod reports whether fn is a method of sync.Mutex or
// sync.RWMutex (including promoted uses through embedding).
func isMutexMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// isFaultInjectorHook reports whether fn is a FailOp or CorruptRead
// method declared on an interface named FaultInjector.
func isFaultInjectorHook(fn *types.Func) bool {
	if fn.Name() != "FailOp" && fn.Name() != "CorruptRead" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() == "FaultInjector"
	}
	// Interface method objects may carry the bare interface type as
	// receiver; fall back to matching by declaring scope.
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// exprString renders an expression as compact source text, used to
// match a Lock's receiver with its Unlock.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
