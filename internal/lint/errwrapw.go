package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// newErrwrapw builds the errwrapw analyzer: fmt.Errorf calls whose
// arguments include an error must wrap it with %w.
//
// Invariant (PRs 2-3): error classification is chain-based —
// retrier.IsTransient, cdwnet.NotSent, and the errhandle fatal/retry split
// all walk the chain with errors.As/Is. Formatting an error with %v or %s
// flattens it to text and the classifiers stop seeing Transient()/NotSent
// markers, so a transient fault is suddenly treated as fatal (or worse, a
// non-idempotent failure as retryable).
func newErrwrapw() *Analyzer {
	return &Analyzer{
		Name: "errwrapw",
		Doc:  "fmt.Errorf with an error argument must use %w so errors.As classification survives",
		Run:  runErrwrapw,
	}
}

func runErrwrapw(p *Pass) {
	errType := types.Universe.Lookup("error").Type()
	p.walkFiles(func(file *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Errorf" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || p.pkgOf(file, id) != "fmt" {
			return true
		}
		if len(call.Args) < 2 {
			return true
		}
		format, ok := stringLiteral(call.Args[0])
		if !ok {
			return true // computed format string: out of static reach
		}
		if strings.Contains(format, "%w") {
			return true
		}
		for _, arg := range call.Args[1:] {
			t := p.TypeOf(arg)
			if t == nil {
				continue
			}
			if types.AssignableTo(t, errType) {
				p.Report(arg, "error formatted without %%w; IsTransient/NotSent classification cannot see through %%v or %%s")
				return true
			}
		}
		return true
	})
}

// stringLiteral unquotes e when it is a basic string literal (possibly a
// concatenation of literals).
func stringLiteral(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		if err != nil {
			return "", false
		}
		return s, true
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, ok1 := stringLiteral(v.X)
		r, ok2 := stringLiteral(v.Y)
		if ok1 && ok2 {
			return l + r, true
		}
	case *ast.ParenExpr:
		return stringLiteral(v.X)
	}
	return "", false
}
