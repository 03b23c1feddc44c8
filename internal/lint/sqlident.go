package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sqlDirty: the string value may carry unquoted dynamic input on some path.
const sqlDirty Bits = 1 << 0

// newSqlident builds the sqlident analyzer: SQL text assembled in the
// translation layers (internal/sqlxlate, internal/cdw, internal/scrub) must
// not interpolate unquoted dynamic values. The virtualizer forwards legacy
// ETL identifiers — table names, column lists, scrub predicates — into
// warehouse SQL; a session-supplied name spliced raw into a statement is an
// injection point and, more mundanely, breaks on the first identifier
// needing quoting.
//
// The check is a flow-sensitive taint analysis. Dirty values: the enclosing
// function's string parameters (unvalidated external input) and anything
// derived from them through assignment, concatenation, or Sprintf. Clean
// values: constants, and the results of quoting functions — anything named
// Quote*, or carrying the //etlvirt:sqlclean directive (resolved across
// packages). A finding fires where SQL-shaped text (a constant part
// containing a SQL keyword) interpolates a may-dirty operand, with the CFG
// path that dirties it as witness.
func newSqlident() *Analyzer {
	return &Analyzer{
		Name: "sqlident",
		Doc:  "SQL text in the translation layers must not interpolate unquoted dynamic identifiers (quote, or mark producers //etlvirt:sqlclean)",
		Run:  runSqlident,
	}
}

// sqlScoped reports whether the analyzer applies to a package: the layers
// that assemble warehouse SQL, plus the analyzer's own fixture tree.
func sqlScoped(pkgPath string) bool {
	for _, suffix := range []string{"sqlxlate", "cdw", "scrub", "sqlident"} {
		if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
			return true
		}
	}
	return false
}

type sqlPass struct {
	p    *Pass
	fd   *ast.FuncDecl
	body *ast.BlockStmt
}

func runSqlident(p *Pass) {
	if !sqlScoped(p.Path) || p.Info == nil {
		return
	}
	p.forEachFuncBody(func(file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt) {
		for _, d := range funcDirectives(fd) {
			if d.Verb == "sqlclean" {
				return // the function IS a sanitizer; its internals are exempt
			}
		}
		sp := &sqlPass{p: p, fd: fd, body: body}
		g := BuildCFG(body)
		transfer := func(n ast.Node, st State) { sp.transfer(n, st, nil) }
		in := Flow(g, nil, transfer)
		for _, b := range g.Blocks {
			st := in[b].clone()
			for _, n := range b.Nodes {
				sp.transfer(n, st, func(at ast.Node, operand ast.Expr) {
					w := g.PathWitness(p.Fset, b, at)
					p.ReportWitness(at, w, nil,
						"SQL text interpolates %s, which may be unquoted dynamic input on this path; quote it or mark its producer //etlvirt:sqlclean",
						pathString(operand))
				})
			}
		}
	})
}

// transfer updates taint state for one node; with check set it also reports
// dirty interpolations into SQL-shaped text.
func (sp *sqlPass) transfer(n ast.Node, st State, check func(at ast.Node, operand ast.Expr)) {
	if check != nil {
		sp.scanBuilds(n, st, check)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			key, _, ok := sp.p.PathKey(lhs)
			if !ok {
				continue
			}
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			}
			if rhs == nil {
				continue
			}
			if dirty, origin := sp.dirtyExpr(rhs, st); dirty {
				st[key] = Fact{Bits: sqlDirty, Origin: origin}
			} else {
				delete(st, key)
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				if dirty, origin := sp.dirtyExpr(vs.Values[i], st); dirty {
					if obj := sp.p.Info.Defs[id]; obj != nil {
						st[keyFor(id.Name, obj)] = Fact{Bits: sqlDirty, Origin: origin}
					}
				}
			}
		}
	}
}

// scanBuilds finds SQL-building expressions in n and reports dirty operands.
func (sp *sqlPass) scanBuilds(n ast.Node, st State, check func(ast.Node, ast.Expr)) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if c.Op.String() != "+" {
				return true
			}
			if !sp.sqlShaped(constParts(c)) {
				return true
			}
			for _, side := range []ast.Expr{c.X, c.Y} {
				if dirty, _ := sp.dirtyExpr(side, st); dirty {
					check(c, dirtyOperand(side))
				}
			}
			return false
		case *ast.CallExpr:
			if !sp.isFormatCall(c) || len(c.Args) == 0 {
				return true
			}
			if !sp.sqlShaped(sp.constText(c.Args[0])) {
				return true
			}
			for _, a := range c.Args[1:] {
				if dirty, _ := sp.dirtyExpr(a, st); dirty {
					check(c, dirtyOperand(a))
				}
			}
			return false
		}
		return true
	})
}

// dirtyOperand picks the expression to name in the message.
func dirtyOperand(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if b, ok := e.(*ast.BinaryExpr); ok {
		return dirtyOperand(b.X)
	}
	return e
}

// dirtyExpr reports whether e may be dirty under st, and the node that made
// it so.
func (sp *sqlPass) dirtyExpr(e ast.Expr, st State) (bool, ast.Node) {
	e = ast.Unparen(e)
	if sp.isConst(e) {
		return false, nil
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		return false, nil
	case *ast.BinaryExpr:
		if d, o := sp.dirtyExpr(e.X, st); d {
			return true, o
		}
		return sp.dirtyExpr(e.Y, st)
	case *ast.CallExpr:
		if sp.isCleanCall(e) {
			return false, nil
		}
		if sp.isFormatCall(e) && len(e.Args) > 0 {
			for _, a := range e.Args[1:] {
				if d, o := sp.dirtyExpr(a, st); d {
					return true, o
				}
			}
			return false, nil
		}
		// Other call results are trusted: they are this module's own
		// constructors (AST printers, renderers) — the taint boundary is
		// raw parameter strings, not computation.
		return false, nil
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		key, root, ok := sp.p.PathKey(e)
		if !ok {
			return false, nil
		}
		if f, tracked := st[key]; tracked && f.Bits&sqlDirty != 0 {
			return true, f.Origin
		}
		if sp.isStringParam(root, e) {
			return true, e
		}
		return false, nil
	}
	return false, nil
}

// isStringParam reports whether the path's root object is a string-typed
// parameter (or receiver field access on one) of the enclosing function.
func (sp *sqlPass) isStringParam(root types.Object, e ast.Expr) bool {
	if root == nil {
		return false
	}
	// Parameters and receivers are declared between the func keyword and the
	// body's opening brace.
	if root.Pos() < sp.fd.Pos() || root.Pos() >= sp.body.Pos() {
		return false
	}
	t := sp.p.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func (sp *sqlPass) isConst(e ast.Expr) bool {
	if sp.p.Info == nil {
		return false
	}
	tv, ok := sp.p.Info.Types[e]
	return ok && tv.Value != nil
}

// isCleanCall matches sanitizer calls: Quote*-named functions/methods, or
// anything carrying //etlvirt:sqlclean (resolved cross-package).
func (sp *sqlPass) isCleanCall(call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if strings.HasPrefix(name, "Quote") || strings.HasPrefix(name, "quote") {
		return true
	}
	fn := sp.p.calleeFunc(call)
	if fn == nil {
		// A conversion like ScrubTableName(x) is not a *types.Func call;
		// resolve the named type's directive-bearing methods elsewhere.
		return false
	}
	for _, d := range sp.p.FuncDirectives(fn) {
		if d.Verb == "sqlclean" {
			return true
		}
	}
	return false
}

// isFormatCall matches fmt.Sprintf/Sprint/Sprintln and strings.Join.
func (sp *sqlPass) isFormatCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch {
	case id.Name == "fmt" && strings.HasPrefix(sel.Sel.Name, "Sprint"):
		return true
	case id.Name == "strings" && sel.Sel.Name == "Join":
		return true
	}
	return false
}

// constText returns e's constant string value, or "".
func (sp *sqlPass) constText(e ast.Expr) string {
	if sp.p.Info != nil {
		if tv, ok := sp.p.Info.Types[e]; ok && tv.Value != nil {
			return tv.Value.String()
		}
	}
	if bl, ok := ast.Unparen(e).(*ast.BasicLit); ok {
		return bl.Value
	}
	return ""
}

// constParts concatenates the constant string fragments of a + chain.
func constParts(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return e.Value
	case *ast.BinaryExpr:
		if e.Op.String() == "+" {
			return constParts(e.X) + " " + constParts(e.Y)
		}
	}
	return ""
}

// sqlShaped reports whether constant text looks like SQL: it contains an
// upper-case SQL keyword. The analyzer only polices strings that become
// statements, not every formatted message in the scoped packages.
func (sp *sqlPass) sqlShaped(text string) bool {
	for _, kw := range []string{
		"SELECT ", "INSERT ", "UPDATE ", "DELETE ", "CREATE ", "DROP ",
		"ALTER ", "MERGE ", "COPY ", "TRUNCATE ", " FROM ", " WHERE ", " INTO ",
	} {
		if strings.Contains(text, kw) {
			return true
		}
	}
	return false
}
