package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a statement as SQL text in the given dialect. Printing a
// construct the dialect cannot express (e.g. a Placeholder or FORMAT cast in
// DialectCDW) returns an error — this is the safety net ensuring the
// cross-compiler rewrote everything before execution.
func Print(s Stmt, d Dialect) (string, error) {
	return (&printer{dialect: d}).print(s)
}

// bindMarkers names the two bind markers of a range template, lo then hi.
// They lex as placeholders, which only a legacy or template parse accepts.
var bindMarkers = [2]string{"__lo", "__hi"}

// PrintTemplate renders s in the CDW dialect as a range template: every
// occurrence of the literal node lo prints as the bind marker :__lo and of hi
// as :__hi. ParseTemplate reads the text back, and binding its slots to
// the values lo and hi held prints exactly what Print would have printed.
func PrintTemplate(s Stmt, lo, hi *Literal) (string, error) {
	return (&printer{dialect: DialectCDW, slots: [2]*Literal{lo, hi}}).print(s)
}

// PrintExpr renders one expression in the given dialect.
func PrintExpr(e Expr, d Dialect) (string, error) {
	p := &printer{dialect: d}
	p.expr(e)
	if p.err != nil {
		return "", p.err
	}
	return p.sb.String(), nil
}

type printer struct {
	dialect Dialect
	sb      strings.Builder
	err     error
	slots   [2]*Literal // PrintTemplate's bound literals, printed as markers
}

func (p *printer) print(s Stmt) (string, error) {
	p.stmt(s)
	if p.err != nil {
		return "", p.err
	}
	return p.sb.String(), nil
}

func (p *printer) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("sqlparse: "+format, args...)
	}
}

func (p *printer) w(s string)               { p.sb.WriteString(s) }
func (p *printer) wf(f string, args ...any) { fmt.Fprintf(&p.sb, f, args...) }

// ident quotes an identifier when needed.
func (p *printer) ident(s string) {
	if needsQuoting(s) {
		p.w(`"` + strings.ReplaceAll(s, `"`, `""`) + `"`)
	} else {
		p.w(s)
	}
}

func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	if !isIdentStart(s[0]) {
		return true
	}
	for i := 1; i < len(s); i++ {
		if !isIdentCont(s[i]) {
			return true
		}
	}
	return keywords[strings.ToUpper(s)]
}

func (p *printer) table(t TableName) {
	if t.Schema != "" {
		p.ident(t.Schema)
		p.w(".")
	}
	p.ident(t.Name)
}

func (p *printer) typeName(t TypeName) {
	p.w(t.Name)
	if len(t.Args) > 0 {
		p.w("(")
		for i, a := range t.Args {
			if i > 0 {
				p.w(",")
			}
			p.w(strconv.Itoa(a))
		}
		p.w(")")
	}
	if t.CharSet != "" {
		if p.dialect == DialectCDW {
			p.fail("CHARACTER SET clause not supported in CDW dialect")
			return
		}
		p.w(" CHARACTER SET " + t.CharSet)
	}
}

func (p *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case *SelectStmt:
		p.selectStmt(st)
	case *InsertStmt:
		p.w("INSERT INTO ")
		p.table(st.Table)
		if len(st.Columns) > 0 {
			p.w(" (")
			for i, c := range st.Columns {
				if i > 0 {
					p.w(", ")
				}
				p.ident(c)
			}
			p.w(")")
		}
		if st.Select != nil {
			p.w(" ")
			p.selectStmt(st.Select)
			return
		}
		p.w(" VALUES ")
		for i, row := range st.Rows {
			if i > 0 {
				p.w(", ")
			}
			p.w("(")
			for j, e := range row {
				if j > 0 {
					p.w(", ")
				}
				p.expr(e)
			}
			p.w(")")
		}
	case *UpdateStmt:
		p.w("UPDATE ")
		p.table(st.Table)
		if st.Alias != "" {
			p.w(" ")
			p.ident(st.Alias)
		}
		p.w(" SET ")
		for i, a := range st.Set {
			if i > 0 {
				p.w(", ")
			}
			p.ident(a.Column)
			p.w(" = ")
			p.expr(a.Value)
		}
		if len(st.From) > 0 {
			p.w(" FROM ")
			p.fromList(st.From)
		}
		if st.Where != nil {
			p.w(" WHERE ")
			p.expr(st.Where)
		}
	case *UpsertStmt:
		if p.dialect != DialectLegacy {
			p.fail("UPDATE ... ELSE INSERT cannot be printed in CDW dialect")
			return
		}
		p.stmt(st.Update)
		p.w(" ELSE ")
		p.stmt(st.Insert)
	case *DeleteStmt:
		p.w("DELETE FROM ")
		p.table(st.Table)
		if st.Alias != "" {
			p.w(" ")
			p.ident(st.Alias)
		}
		if len(st.Using) > 0 {
			p.w(" USING ")
			p.fromList(st.Using)
		}
		if st.Where != nil {
			p.w(" WHERE ")
			p.expr(st.Where)
		}
	case *CreateTableStmt:
		p.w("CREATE TABLE ")
		if st.IfNotExists {
			p.w("IF NOT EXISTS ")
		}
		p.table(st.Table)
		p.w(" (")
		for i, c := range st.Columns {
			if i > 0 {
				p.w(", ")
			}
			p.ident(c.Name)
			p.w(" ")
			p.typeName(c.Type)
			if c.NotNull {
				p.w(" NOT NULL")
			}
			if c.Default != nil {
				p.w(" DEFAULT ")
				p.expr(c.Default)
			}
		}
		if len(st.PrimaryKey) > 0 {
			p.w(", PRIMARY KEY (")
			for i, c := range st.PrimaryKey {
				if i > 0 {
					p.w(", ")
				}
				p.ident(c)
			}
			p.w(")")
		}
		for _, u := range st.Unique {
			p.w(", UNIQUE (")
			for i, c := range u {
				if i > 0 {
					p.w(", ")
				}
				p.ident(c)
			}
			p.w(")")
		}
		p.w(")")
	case *DropTableStmt:
		p.w("DROP TABLE ")
		if st.IfExists {
			p.w("IF EXISTS ")
		}
		p.table(st.Table)
	case *TruncateStmt:
		p.w("TRUNCATE TABLE ")
		p.table(st.Table)
	case *CopyStmt:
		if p.dialect != DialectCDW {
			p.fail("COPY INTO is CDW-only")
			return
		}
		p.w("COPY INTO ")
		p.table(st.Table)
		p.w(" FROM ")
		p.strLit(st.From)
		if len(st.Files) > 0 {
			p.w(" FILES (")
			for i, f := range st.Files {
				if i > 0 {
					p.w(", ")
				}
				p.strLit(f)
			}
			p.w(")")
		}
		if len(st.Options) > 0 {
			p.w(" OPTIONS (")
			first := true
			for _, k := range sortedKeys(st.Options) {
				if !first {
					p.w(", ")
				}
				first = false
				p.w(k)
				p.w(" ")
				p.strLit(st.Options[k])
			}
			p.w(")")
		}
	default:
		p.fail("cannot print statement %T", s)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func (p *printer) selectStmt(s *SelectStmt) {
	if s.Union != nil && s.Limit != nil && p.dialect == DialectLegacy {
		p.fail("legacy dialect cannot express a row limit over a UNION")
		return
	}
	p.selectCore(s)
	for u := s.Union; u != nil; u = u.Union {
		p.w(" UNION ALL ")
		p.selectCore(u)
	}
	if len(s.OrderBy) > 0 {
		p.w(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				p.w(", ")
			}
			p.expr(o.Expr)
			if o.Desc {
				p.w(" DESC")
			}
		}
	}
	if s.Limit != nil && p.dialect == DialectCDW {
		p.wf(" LIMIT %d", *s.Limit)
	}
}

// selectCore prints one select branch without its ORDER BY / LIMIT / union
// tail. The legacy dialect spells the limit as TOP inside the head, which
// only exists for non-union selects (checked by selectStmt).
func (p *printer) selectCore(s *SelectStmt) {
	p.w("SELECT ")
	if s.Distinct {
		p.w("DISTINCT ")
	}
	if s.Limit != nil && s.Union == nil && p.dialect == DialectLegacy {
		p.wf("TOP %d ", *s.Limit)
	}
	for i, it := range s.Items {
		if i > 0 {
			p.w(", ")
		}
		if it.Star {
			if it.StarTable != "" {
				p.ident(it.StarTable)
				p.w(".")
			}
			p.w("*")
			continue
		}
		p.expr(it.Expr)
		if it.Alias != "" {
			p.w(" AS ")
			p.ident(it.Alias)
		}
	}
	if len(s.From) > 0 {
		p.w(" FROM ")
		p.fromList(s.From)
	}
	if s.Where != nil {
		p.w(" WHERE ")
		p.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		p.w(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				p.w(", ")
			}
			p.expr(e)
		}
	}
	if s.Having != nil {
		p.w(" HAVING ")
		p.expr(s.Having)
	}
}

func (p *printer) fromList(from []TableExpr) {
	for i, te := range from {
		if i > 0 {
			p.w(", ")
		}
		p.tableExpr(te)
	}
}

func (p *printer) tableExpr(te TableExpr) {
	switch t := te.(type) {
	case *TableRef:
		p.table(t.Table)
		if t.Alias != "" {
			p.w(" ")
			p.ident(t.Alias)
		}
	case *SubqueryTable:
		p.w("(")
		p.selectStmt(t.Select)
		p.w(") ")
		p.ident(t.Alias)
	case *Join:
		p.tableExpr(t.Left)
		p.w(" " + t.Type.String() + " ")
		p.tableExpr(t.Right)
		if t.On != nil {
			p.w(" ON ")
			p.expr(t.On)
		}
	default:
		p.fail("cannot print table expression %T", te)
	}
}

func (p *printer) strLit(s string) {
	p.w("'" + strings.ReplaceAll(s, "'", "''") + "'")
}

// binding powers for parenthesization decisions; higher binds tighter.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "OR":
			return 1
		case "AND":
			return 2
		case "=", "<>", "<", "<=", ">", ">=":
			return 4
		case "||":
			return 5
		case "+", "-":
			return 6
		case "*", "/", "%":
			return 7
		case "**":
			return 8
		}
		return 4
	case *UnaryExpr:
		if x.Op == "NOT" {
			return 3
		}
		return 9
	case *IsNullExpr, *InExpr, *BetweenExpr, *LikeExpr:
		return 4
	default:
		return 10
	}
}

func (p *printer) exprChild(child Expr, parentPrec int) {
	if exprPrec(child) < parentPrec {
		p.w("(")
		p.expr(child)
		p.w(")")
		return
	}
	p.expr(child)
}

// slot returns which of PrintTemplate's bound literals x is, or -1.
func (p *printer) slot(x *Literal) int {
	for i, s := range p.slots {
		if s != nil && s == x {
			return i
		}
	}
	return -1
}

func (p *printer) expr(e Expr) {
	switch x := e.(type) {
	case *Literal:
		if i := p.slot(x); i >= 0 {
			p.w(":" + bindMarkers[i])
			return
		}
		switch x.Kind {
		case LitNull:
			p.w("NULL")
		case LitInt:
			p.w(strconv.FormatInt(x.Int, 10))
		case LitFloat:
			s := strconv.FormatFloat(x.Float, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			p.w(s)
		case LitString:
			p.strLit(x.Str)
		case LitBool:
			if x.Bool {
				p.w("TRUE")
			} else {
				p.w("FALSE")
			}
		case LitDate:
			p.w("DATE ")
			p.strLit(x.Str)
		}
	case *ColRef:
		if x.Qualifier != "" {
			p.ident(x.Qualifier)
			p.w(".")
		}
		p.ident(x.Name)
	case *Placeholder:
		if p.dialect == DialectCDW {
			p.fail("placeholder :%s cannot be printed in CDW dialect", x.Name)
			return
		}
		p.w(":" + x.Name)
	case *Star:
		p.w("*")
	case *UnaryExpr:
		prec := exprPrec(x)
		if x.Op == "NOT" {
			p.w("NOT ")
		} else {
			p.w(x.Op)
		}
		p.exprChild(x.X, prec)
	case *BinaryExpr:
		prec := exprPrec(x)
		p.exprChild(x.L, prec)
		p.w(" " + x.Op + " ")
		// left-associative: right child needs parens at equal precedence
		if exprPrec(x.R) <= prec && x.Op != "**" {
			if exprPrec(x.R) < prec || isSameNonAssoc(x, x.R) {
				p.w("(")
				p.expr(x.R)
				p.w(")")
				return
			}
		}
		p.exprChild(x.R, prec)
	case *FuncCall:
		p.w(x.Name)
		p.w("(")
		if x.Distinct {
			p.w("DISTINCT ")
		}
		for i, a := range x.Args {
			if i > 0 {
				p.w(", ")
			}
			p.expr(a)
		}
		p.w(")")
	case *CastExpr:
		p.w("CAST(")
		p.expr(x.X)
		p.w(" AS ")
		p.typeName(x.Type)
		if x.Format != "" {
			if p.dialect == DialectCDW {
				p.fail("CAST ... FORMAT cannot be printed in CDW dialect")
				return
			}
			p.w(" FORMAT ")
			p.strLit(x.Format)
		}
		p.w(")")
	case *CaseExpr:
		p.w("CASE")
		if x.Operand != nil {
			p.w(" ")
			p.expr(x.Operand)
		}
		for _, wc := range x.Whens {
			p.w(" WHEN ")
			p.expr(wc.Cond)
			p.w(" THEN ")
			p.expr(wc.Then)
		}
		if x.Else != nil {
			p.w(" ELSE ")
			p.expr(x.Else)
		}
		p.w(" END")
	case *IsNullExpr:
		p.exprChild(x.X, 4)
		if x.Not {
			p.w(" IS NOT NULL")
		} else {
			p.w(" IS NULL")
		}
	case *InExpr:
		p.exprChild(x.X, 4)
		if x.Not {
			p.w(" NOT")
		}
		p.w(" IN (")
		if x.Sub != nil {
			p.selectStmt(x.Sub)
		} else {
			for i, v := range x.List {
				if i > 0 {
					p.w(", ")
				}
				p.expr(v)
			}
		}
		p.w(")")
	case *BetweenExpr:
		p.exprChild(x.X, 4)
		if x.Not {
			p.w(" NOT")
		}
		p.w(" BETWEEN ")
		p.exprChild(x.Lo, 5)
		p.w(" AND ")
		p.exprChild(x.Hi, 5)
	case *LikeExpr:
		p.exprChild(x.X, 4)
		if x.Not {
			p.w(" NOT")
		}
		p.w(" LIKE ")
		p.exprChild(x.Pattern, 5)
	case *ExistsExpr:
		if x.Not {
			p.w("NOT ")
		}
		p.w("EXISTS (")
		p.selectStmt(x.Sub)
		p.w(")")
	case *SubqueryExpr:
		p.w("(")
		p.selectStmt(x.Sub)
		p.w(")")
	default:
		p.fail("cannot print expression %T", e)
	}
}

// isSameNonAssoc reports whether r reuses a non-associative operator of the
// same precedence as parent, which would re-associate without parens
// (e.g. a - (b - c)).
func isSameNonAssoc(parent *BinaryExpr, r Expr) bool {
	rb, ok := r.(*BinaryExpr)
	if !ok {
		return false
	}
	switch parent.Op {
	case "-", "/", "%":
		return exprPrec(rb) == exprPrec(parent)
	case "+", "*", "||", "AND", "OR":
		return false
	default:
		return true
	}
}
