package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// newCtxbg builds the ctxbg analyzer: no context.Background or
// context.TODO inside internal/... outside the node-lifecycle root.
//
// Invariant (§3, PR 3): every I/O context in the virtualizer derives from
// the node lifetime, so Close() cancels in-flight credit waits, retry
// backoffs, and recovery attempts. A context.Background() anywhere else
// creates work that ignores shutdown — exactly the hang class the retry
// hardening fixed. The node-lifecycle root (node.go, where the lifetime
// context is minted) is the single allowed exception.
func newCtxbg() *Analyzer {
	return &Analyzer{
		Name: "ctxbg",
		Doc:  "forbid context.Background/TODO in internal packages outside the node-lifecycle root",
		Run:  runCtxbg,
	}
}

func runCtxbg(p *Pass) {
	if !strings.Contains(p.Path, "/internal/") && !strings.HasPrefix(p.Path, "internal/") {
		return
	}
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || p.pkgOf(file, id) != "context" {
			return true
		}
		if filepath.Base(p.Filename(sel)) == "node.go" {
			return true // the node-lifecycle root mints the base context
		}
		p.Report(sel, "context.%s() escapes the node lifetime; derive the context from the node or job instead", sel.Sel.Name)
		return true
	})
}
