package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockHeld: the mutex may be held on some path.
const lockHeld Bits = 1 << 0

// newLockorder builds the lockorder analyzer. Two invariants, one
// flow-sensitive and one global:
//
//  1. Per function: a sync.Mutex/RWMutex locked in a function must be
//     unlocked (directly or by defer) on every path to return. Returning
//     with the lock held is only legal for lock-helper methods (Lock,
//     RLock &c. — forwarding implementations of sync.Locker) or with an
//     explicit //nolint:lockorder justification.
//
//  2. Across the whole run: the may-precede relation of mutex acquisitions
//     — "B locked while A held", including transitively through calls —
//     must stay acyclic. The virtualizer's shutdown paths walk node →
//     job → tracer in one direction and the metrics scrapers walk it in
//     the other; an acquisition cycle is a deadlock waiting for the right
//     interleaving. Findings report the full cycle with one example
//     acquisition site per edge.
//
// Mutex identities are type-level ("core.importJob.mu"), so two instances
// of the same struct field are one graph node: the analysis is about
// ordering disciplines, not individual locks.
func newLockorder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "mutexes must be released on every path, and cross-package lock acquisition order must be acyclic",
		// Not cacheable: the acquisition graph accumulates across every
		// package in the run.
	}
	st := &lockorderState{
		edges:   make(map[string]map[string]token.Position),
		summary: make(map[*types.Func]*lockSummary),
	}
	a.Run = func(p *Pass) { st.run(p) }
	a.End = func(report func(Diagnostic)) { st.end(report) }
	return a
}

// lockSummary is one function's contribution to the global graph.
type lockSummary struct {
	locks map[string]token.Position // mutexes the function may lock directly
	calls map[*types.Func]bool      // functions it may call
}

// heldCall is a call made while mutexes were held; expanded against callee
// summaries in End.
type heldCall struct {
	held   map[string]bool
	callee *types.Func
	pos    token.Position
}

type lockorderState struct {
	edges     map[string]map[string]token.Position // A -> B -> example site
	summary   map[*types.Func]*lockSummary
	heldCalls []heldCall
}

type lockPass struct {
	p       *Pass
	st      *lockorderState
	sum     *lockSummary
	display map[string]string // state key -> global mutex display key
}

func (st *lockorderState) run(p *Pass) {
	if p.Info == nil {
		return
	}
	p.forEachFuncBody(func(file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt) {
		if !bodyLocksMutex(p, body) {
			return
		}
		lp := &lockPass{
			p: p, st: st,
			sum:     &lockSummary{locks: make(map[string]token.Position), calls: make(map[*types.Func]bool)},
			display: make(map[string]string),
		}
		if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
			st.summary[obj] = lp.sum
		}
		g := BuildCFG(body)
		transfer := func(n ast.Node, s State) { lp.transfer(n, s) }
		in := Flow(g, nil, transfer)
		exit := ExitState(g, in, transfer)
		if isLockHelper(fd) {
			return // forwarding Lock/Unlock implementations return held by design
		}
		reported := make(map[string]bool)
		for key, f := range exit {
			if f.Bits&lockHeld == 0 || f.Origin == nil {
				continue
			}
			disp := lp.display[key]
			if reported[disp] {
				continue
			}
			reported[disp] = true
			w := g.PathWitness(p.Fset, g.Exit, nil)
			p.ReportWitness(f.Origin, w, nil,
				"%s may still be held when %s returns (no Unlock on some path)",
				disp, fd.Name.Name)
		}
	})
}

func (lp *lockPass) transfer(n ast.Node, s State) {
	ast.Inspect(n, func(c ast.Node) bool {
		// Deferred unlocks apply at exit (ExitState), not at the defer site.
		if _, ok := c.(*ast.DeferStmt); ok && c != n {
			return false
		}
		if ds, ok := n.(*ast.DeferStmt); ok && c == n {
			// Walk only the deferred call's arguments now; the call itself
			// is replayed at exit.
			for _, a := range ds.Call.Args {
				lp.transfer(a, s)
			}
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			return false // closure bodies run on their own schedule
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		lp.callEffect(call, s)
		return true
	})
}

// callEffect applies one call: mutex ops mutate state and record edges;
// other resolved calls are recorded against the currently held set.
func (lp *lockPass) callEffect(call *ast.CallExpr, s State) {
	name, key, disp, ok := lp.mutexOp(call)
	if ok {
		switch name {
		case "Lock", "RLock":
			// Acquisition edge from everything currently held.
			for heldKey, f := range s {
				if f.Bits&lockHeld == 0 {
					continue
				}
				from := lp.display[heldKey]
				if from != "" && disp != "" && from != disp {
					lp.st.addEdge(from, disp, lp.p.Fset.Position(call.Pos()))
				}
			}
			s[key] = Fact{Bits: lockHeld, Origin: call}
			lp.display[key] = disp
			if disp != "" {
				if _, seen := lp.sum.locks[disp]; !seen {
					lp.sum.locks[disp] = lp.p.Fset.Position(call.Pos())
				}
			}
		case "Unlock", "RUnlock":
			delete(s, key)
		}
		return
	}
	if fn := lp.p.calleeFunc(call); fn != nil {
		lp.sum.calls[fn] = true
		held := make(map[string]bool)
		for heldKey, f := range s {
			if f.Bits&lockHeld != 0 && lp.display[heldKey] != "" {
				held[lp.display[heldKey]] = true
			}
		}
		if len(held) > 0 {
			lp.st.heldCalls = append(lp.st.heldCalls, heldCall{
				held: held, callee: fn, pos: lp.p.Fset.Position(call.Pos()),
			})
		}
	}
}

// mutexOp matches sync.(RW)Mutex method calls and resolves the receiver to a
// per-function state key and a global display key. RLock/RUnlock track a
// separate "/r" key so read and write locks of an RWMutex are independent.
func (lp *lockPass) mutexOp(call *ast.CallExpr) (name, key, display string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	name = sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", "", false
	}
	fn, isFn := lp.p.Uses(sel.Sel).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	key, _, pathOK := lp.p.PathKey(sel.X)
	if !pathOK {
		// Untrackable receiver (map element, call result): synthesize a
		// per-site key so Lock/Unlock of the same textual expression pair up
		// within a block but never participate in the global graph.
		key = "??" + pathString(sel.X)
	}
	display = lp.globalMutexKey(sel.X)
	if strings.HasPrefix(name, "R") {
		key += "/r"
		if display != "" {
			display += "/r"
		}
	}
	return name, key, display, true
}

// globalMutexKey names a mutex at type level: "pkg.Type.field" for fields,
// "pkg.var" for package-level mutexes, "" for locals (excluded from the
// global graph — a function-local mutex cannot deadlock across packages).
func (lp *lockPass) globalMutexKey(recv ast.Expr) string {
	switch recv := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := lp.p.Uses(recv)
		if obj == nil {
			return ""
		}
		if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return pkgShort(v.Pkg().Path()) + "." + v.Name()
		}
		return "" // local or parameter mutex
	case *ast.SelectorExpr:
		n := named(lp.p.TypeOf(recv.X))
		if n == nil || n.Obj().Pkg() == nil {
			return ""
		}
		return pkgShort(n.Obj().Pkg().Path()) + "." + n.Obj().Name() + "." + recv.Sel.Name
	case *ast.StarExpr:
		return lp.globalMutexKey(recv.X)
	}
	return ""
}

func pkgShort(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isLockHelper reports whether fd is itself a locking primitive
// implementation (sync.Locker forwarding), which returns held by contract.
func isLockHelper(fd *ast.FuncDecl) bool {
	switch fd.Name.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
		return true
	}
	return false
}

// bodyLocksMutex pre-filters bodies with no Lock call at all.
func bodyLocksMutex(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
			if fn, isFn := p.Uses(sel.Sel).(*types.Func); isFn && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}

func (st *lockorderState) addEdge(from, to string, pos token.Position) {
	m := st.edges[from]
	if m == nil {
		m = make(map[string]token.Position)
		st.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = pos
	}
}

// end expands held-site calls through the transitive may-lock closure and
// reports every elementary cycle in the acquisition graph.
func (st *lockorderState) end(report func(Diagnostic)) {
	closure := st.mayLockClosure()
	for _, hc := range st.heldCalls {
		for locked := range closure[hc.callee] {
			for held := range hc.held {
				if held != locked {
					st.addEdge(held, locked, hc.pos)
				}
			}
		}
	}
	for _, cyc := range st.cycles() {
		var steps []string
		for i, node := range cyc {
			next := cyc[(i+1)%len(cyc)]
			pos := st.edges[node][next]
			steps = append(steps, fmt.Sprintf("%s -> %s (%s)", node, next, pos))
		}
		pos := st.edges[cyc[0]][cyc[1%len(cyc)]]
		report(Diagnostic{
			Pos:      pos,
			Analyzer: "lockorder",
			Message: "lock acquisition cycle (potential deadlock): " +
				strings.Join(steps, ", "),
		})
	}
}

// mayLockClosure computes, per function, every mutex it may lock directly or
// through calls.
func (st *lockorderState) mayLockClosure() map[*types.Func]map[string]bool {
	out := make(map[*types.Func]map[string]bool, len(st.summary))
	for fn, sum := range st.summary {
		set := make(map[string]bool, len(sum.locks))
		for k := range sum.locks {
			set[k] = true
		}
		out[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, sum := range st.summary {
			set := out[fn]
			for callee := range sum.calls {
				for k := range out[callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

// cycles returns the graph's elementary cycles, each canonicalized (rotated
// to its lexicographically smallest node) and deduplicated, in sorted order.
func (st *lockorderState) cycles() [][]string {
	nodes := make([]string, 0, len(st.edges))
	for n := range st.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	seen := make(map[string]bool)
	var out [][]string
	var stack []string
	onStack := make(map[string]int)
	var dfs func(n string)
	dfs = func(n string) {
		if depth, ok := onStack[n]; ok {
			cyc := canonicalCycle(stack[depth:])
			sig := strings.Join(cyc, "\x00")
			if !seen[sig] {
				seen[sig] = true
				out = append(out, cyc)
			}
			return
		}
		onStack[n] = len(stack)
		stack = append(stack, n)
		succs := make([]string, 0, len(st.edges[n]))
		for s := range st.edges[n] {
			succs = append(succs, s)
		}
		sort.Strings(succs)
		for _, s := range succs {
			dfs(s)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range nodes {
		dfs(n)
	}
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], ",") < strings.Join(out[j], ",") })
	return out
}

func canonicalCycle(cyc []string) []string {
	if len(cyc) == 0 {
		return nil
	}
	min := 0
	for i := range cyc {
		if cyc[i] < cyc[min] {
			min = i
		}
	}
	out := make([]string, 0, len(cyc))
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	return out
}
