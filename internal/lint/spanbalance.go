package lint

import (
	"go/ast"
	"go/types"
)

// spanStarted: the trace handle may hold an unfinished span on some path.
const spanStarted Bits = 1 << 0

// newSpanbalance builds the spanbalance analyzer: every Tracer.Start /
// Tracer.StartCtx must reach a Finish on all paths, or hand the trace off to
// an owner that will (return it, publish it into a registry, pass it to
// another function). The observability invariant behind it: an unfinished
// span pins its job's trace buffer in the tracer forever and the CDC SLO
// attribution report silently under-counts the job, so span leaks are data
// corruption for the ops plane, not just noise.
//
// The analysis is flow-sensitive with hand-off semantics:
//
//   - assigning the handle into a composite literal re-keys tracking to the
//     literal's field (newImportJob's `j := &importJob{trace: trace}`);
//   - returning or publishing the holder clears it (the caller or registry
//     now owns the span's lifecycle);
//   - passing the handle as a call argument clears it (hand-off), but using
//     it as a method receiver (trace.Span(...)) does not — recording spans
//     is not finishing them;
//   - a Finish call on any tracer clears all handles (Finish is keyed by job
//     id, not by handle, so one call settles the function's spans);
//   - deferred Finish counts on every path, including panic unwinds.
func newSpanbalance() *Analyzer {
	return &Analyzer{
		Name: "spanbalance",
		Doc:  "trace spans started with Tracer.Start/StartCtx must reach Finish or an ownership hand-off on every path",
		Run:  runSpanbalance,
	}
}

type spanPass struct {
	p    *Pass
	body *ast.BlockStmt
}

func runSpanbalance(p *Pass) {
	if p.Info == nil {
		return // tracker is type-driven; nothing to do without types
	}
	p.forEachFuncBody(func(file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt) {
		sp := &spanPass{p: p, body: body}
		if !sp.bodyStartsSpan(body) {
			return
		}
		g := BuildCFG(body)
		transfer := func(n ast.Node, st State) { sp.transfer(n, st) }
		in := Flow(g, transfer)
		exit := ExitState(g, in, transfer)
		reported := make(map[ast.Node]bool)
		for key, f := range exit {
			if f.Bits&spanStarted == 0 || f.Origin == nil || reported[f.Origin] {
				continue
			}
			reported[f.Origin] = true
			w := g.PathWitness(p.Fset, g.Exit, nil)
			p.ReportWitness(f.Origin, w, nil,
				"trace %s may reach a return without Finish or a hand-off in %s (leaked span pins the job's trace buffer)",
				keyDisplay(key), fd.Name.Name)
		}
	})
}

// bodyStartsSpan cheaply pre-filters: only bodies containing a Start call
// need the solver.
func (sp *spanPass) bodyStartsSpan(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && sp.isTracerStart(call) {
			found = true
		}
		return !found
	})
	return found
}

func (sp *spanPass) transfer(n ast.Node, st State) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		sp.assign(n, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			sp.handOff(r, st)
		}
	case *ast.ExprStmt:
		sp.call(n.X, st)
	case *ast.GoStmt:
		sp.callArgs(n.Call, st)
	case *ast.DeferStmt:
		// Deferred calls run at exit; ExitState routes n.Call back here.
		for _, a := range n.Call.Args {
			sp.handOff(a, st)
		}
	case *ast.CallExpr:
		// Reached via ExitState replaying deferred calls.
		sp.call(n, st)
	case *ast.SendStmt:
		sp.handOff(n.Value, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					if sp.isStartExpr(v) && i < len(vs.Names) {
						if key, ok := sp.defKey(vs.Names[i]); ok {
							st[key] = Fact{Bits: spanStarted, Origin: v}
						}
					} else {
						sp.call(v, st)
					}
				}
			}
		}
	}
}

func (sp *spanPass) assign(n *ast.AssignStmt, st State) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		key, root, ok := sp.p.PathKey(lhs)
		if !ok {
			// Publishing into an untrackable location (map entry, slice
			// element): any handle in the RHS is handed off to the store.
			if rhs != nil {
				sp.handOff(rhs, st)
			}
			continue
		}
		killPrefix(st, key)
		if rhs == nil {
			continue
		}
		if sp.isStartExpr(rhs) {
			if isBodyLocal(root, sp.body) {
				st[key] = Fact{Bits: spanStarted, Origin: rhs}
			}
			// A handle assigned straight into a field of a longer-lived
			// value is owned by that value; out of intraprocedural scope.
			continue
		}
		// Re-keying through a composite literal: j := &importJob{trace: t}.
		if lit := compositeLit(rhs); lit != nil {
			moved := false
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				srcKey, _, ok := sp.p.PathKey(kv.Value)
				if !ok {
					continue
				}
				if f, tracked := st[srcKey]; tracked && f.Bits&spanStarted != 0 {
					delete(st, srcKey)
					if isBodyLocal(root, sp.body) {
						if id, ok := kv.Key.(*ast.Ident); ok {
							st[key+"."+id.Name] = f
							moved = true
						}
					}
				}
			}
			if moved {
				continue
			}
			sp.call(rhs, st)
			continue
		}
		// Plain move between paths: alias tracking follows the newest name.
		if srcKey, _, ok := sp.p.PathKey(rhs); ok {
			if f, tracked := st[srcKey]; tracked && f.Bits&spanStarted != 0 {
				delete(st, srcKey)
				if isBodyLocal(root, sp.body) {
					st[key] = f
				}
				continue
			}
		}
		sp.call(rhs, st)
	}
}

// call processes calls inside an expression: Finish settles everything;
// handle-valued arguments are hand-offs.
func (sp *spanPass) call(e ast.Expr, st State) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sp.isTracerFinish(call) {
			for k, f := range st {
				f.Bits &^= spanStarted
				st[k] = f
			}
			return true
		}
		sp.callArgs(call, st)
		return true
	})
}

func (sp *spanPass) callArgs(call *ast.CallExpr, st State) {
	// Arguments are hand-offs; the receiver (sel.X) is only a use.
	for _, a := range call.Args {
		sp.handOff(a, st)
	}
}

// handOff clears tracking for any handle (or holder of a re-keyed handle)
// reachable from e: the recipient owns the span's lifecycle now.
func (sp *spanPass) handOff(e ast.Expr, st State) {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		sp.handOff(e.X, st)
		return
	case *ast.ParenExpr:
		sp.handOff(e.X, st)
		return
	}
	if lit := compositeLit(e); lit != nil {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				sp.handOff(kv.Value, st)
			} else {
				sp.handOff(el, st)
			}
		}
		return
	}
	if key, _, ok := sp.p.PathKey(e); ok {
		killPrefix(st, key)
		return
	}
	sp.call(e, st)
}

// compositeLit unwraps e to a composite literal (through & and parens).
func compositeLit(e ast.Expr) *ast.CompositeLit {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CompositeLit:
			return x
		default:
			return nil
		}
	}
}

func (sp *spanPass) defKey(id *ast.Ident) (string, bool) {
	obj := sp.p.Info.Defs[id]
	if obj == nil {
		return "", false
	}
	return keyFor(id.Name, obj), true
}

func (sp *spanPass) isStartExpr(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && sp.isTracerStart(call)
}

func (sp *spanPass) isTracerStart(call *ast.CallExpr) bool {
	return sp.isTracerMethod(call, "Start") || sp.isTracerMethod(call, "StartCtx")
}

func (sp *spanPass) isTracerFinish(call *ast.CallExpr) bool {
	return sp.isTracerMethod(call, "Finish")
}

// isTracerMethod matches a method call of the given name on a value whose
// named type is called Tracer (the obs tracer, or a fixture double).
func (sp *spanPass) isTracerMethod(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := sp.p.TypeOf(sel.X)
	return namedTypeName(t) == "Tracer"
}

// namedTypeName returns the name of t's named type, through pointers.
func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return ""
		}
	}
}
