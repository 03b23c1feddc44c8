package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// newGoroleak builds the goroleak analyzer: every goroutine launched as a
// function literal in internal packages must be stoppable — it has to
// receive a context.Context or channel parameter, or reference one from
// the enclosing scope.
//
// Invariant (PR 3): node Close() must terminate every goroutine the
// pipeline spawned; the shutdown-hang chaos tests assert it. A go func
// that references no context and no channel has no way to observe
// cancellation and is unstoppable by construction. Goroutines bounded by
// other means (a connection whose Close unblocks them) must say so with
// //nolint:goroleak.
func newGoroleak() *Analyzer {
	return &Analyzer{
		Name: "goroleak",
		Doc:  "go func literals in internal packages must reference a context or channel so they can be stopped",
		Run:  runGoroleak,
	}
}

func runGoroleak(p *Pass) {
	if !strings.Contains(p.Path, "/internal/") && !strings.HasPrefix(p.Path, "internal/") {
		return
	}
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		fn, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true // named funcs are the callee's responsibility
		}
		if funcLitStoppable(p, fn) {
			return true
		}
		p.Report(g, "go func literal references no context.Context and no channel; it cannot observe shutdown")
		return true
	})
}

// funcLitStoppable reports whether the literal can observe a stop signal:
// a context/channel parameter, or any referenced expression of such a type
// (captured channels and contexts count; so do calls returning them).
func funcLitStoppable(p *Pass, fn *ast.FuncLit) bool {
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			if isStopType(p.TypeOf(f.Type)) {
				return true
			}
		}
	}
	stoppable := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if stoppable {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if isStopType(p.TypeOf(e)) {
			stoppable = true
			return false
		}
		return true
	})
	return stoppable
}

// isStopType reports whether t is a channel (any direction) or
// context.Context.
func isStopType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	nt := named(t)
	return nt != nil && nt.Obj().Name() == "Context" &&
		nt.Obj().Pkg() != nil && nt.Obj().Pkg().Path() == "context"
}
