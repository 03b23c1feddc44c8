package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// newRetrysafe builds the retrysafe analyzer: no CDW DML call (Pool.Write,
// Pool.Exec, Client.Exec) lexically inside a retrier.Do closure.
//
// Invariant (§6): the DML calls may carry non-idempotent DML, so the
// only layer allowed to retry them is the cdwnet pool itself, which
// restricts retries to failures that provably happened before the request
// hit the wire (NotSent). Wrapping one in an outer retrier.Do re-runs the
// statement after ambiguous failures and can double-apply DML — the
// exactly-once guarantee the paper's semantic-equivalence claim rests on.
// Recovery loops that make the statement idempotent by reconstructing state
// first (COPY recovery) must justify themselves with a //nolint:retrysafe at
// the Do call.
func newRetrysafe() *Analyzer {
	return &Analyzer{
		Name: "retrysafe",
		Doc:  "forbid cdwnet Pool.Write and Pool/Client Exec lexically inside a retrier.Do closure (non-idempotent DML must not be retried)",
		Run:  runRetrysafe,
	}
}

// dmlCalls are the cdwnet Pool and Client methods that send a statement
// which may be DML.
var dmlCalls = map[string]bool{"Write": true, "Exec": true}

func runRetrysafe(p *Pass) {
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Do" {
			return true
		}
		if !isNamed(p.TypeOf(sel.X), "retrier", "Retrier") {
			return true
		}
		for _, arg := range call.Args {
			fn, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(fn.Body, func(inner ast.Node) bool {
				ic, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				isel, ok := ic.Fun.(*ast.SelectorExpr)
				if !ok || !dmlCalls[isel.Sel.Name] {
					return true
				}
				recv := p.TypeOf(isel.X)
				if isNamed(recv, "cdwnet", "Pool") || isNamed(recv, "cdwnet", "Client") {
					p.ReportRelated(ic, []ast.Node{call},
						"%s.%s inside a retrier.Do closure can double-apply non-idempotent DML; rely on the pool's NotSent-only retry instead",
						named(recv).Obj().Name(), isel.Sel.Name)
				}
				return true
			})
		}
		return true
	})
}

// named unwraps pointers and aliases down to the named type, or nil.
func named(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Alias:
			t = types.Unalias(v)
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers) is the named type
// pkgBase.name, where pkgBase matches the final import-path element — so
// the rule covers both the real package and testdata mirrors.
func isNamed(t types.Type, pkgBase, name string) bool {
	nt := named(t)
	if nt == nil || nt.Obj().Name() != name || nt.Obj().Pkg() == nil {
		return false
	}
	path := nt.Obj().Pkg().Path()
	return path == pkgBase || strings.HasSuffix(path, "/"+pkgBase)
}
