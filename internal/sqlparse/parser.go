package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser parses one or more SQL statements.
type Parser struct {
	dialect Dialect
	toks    []Token
	pos     int
	// slots, set only by ParseTemplate, holds the literals the bind markers
	// stand for; nil makes every placeholder a legacy one.
	slots *[2]*Literal
}

// NewParser builds a parser for src in the given dialect.
func NewParser(src string, dialect Dialect) (*Parser, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	return &Parser{dialect: dialect, toks: toks}, nil
}

// Parse parses a single statement, requiring end of input (an optional
// trailing semicolon is allowed).
func Parse(src string, dialect Dialect) (Stmt, error) {
	p, err := NewParser(src, dialect)
	if err != nil {
		return nil, err
	}
	return p.parseOnly()
}

// parseOnly parses the one statement of the input.
func (p *Parser) parseOnly() (Stmt, error) {
	s, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		t := p.cur()
		return nil, fmt.Errorf("sqlparse: unexpected %q after statement at line %d", t.Text, t.Line)
	}
	return s, nil
}

// ParseTemplate parses a range template (see PrintTemplate) in the CDW
// dialect. Every occurrence of a bind marker becomes the same *Literal of
// kind LitInt, one per marker, returned as slots (lo, hi); setting their Int
// fields binds the statement. Both markers must appear, and any other
// placeholder is rejected as Parse rejects it, so an unbound marker cannot
// reach the engine through a plain Parse.
func ParseTemplate(src string) (stmt Stmt, slots [2]*Literal, err error) {
	p, err := NewParser(src, DialectCDW)
	if err != nil {
		return nil, slots, err
	}
	p.slots = &slots
	if stmt, err = p.parseOnly(); err != nil {
		return nil, slots, err
	}
	for i, lit := range slots {
		if lit == nil {
			return nil, slots, fmt.Errorf("sqlparse: template lacks bind marker :%s", bindMarkers[i])
		}
	}
	return stmt, slots, nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string, dialect Dialect) ([]Stmt, error) {
	p, err := NewParser(src, dialect)
	if err != nil {
		return nil, err
	}
	var out []Stmt
	for {
		for p.acceptOp(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.acceptOp(";") && !p.atEOF() {
			t := p.cur()
			return nil, fmt.Errorf("sqlparse: expected ';' at line %d, got %q", t.Line, t.Text)
		}
	}
}

// ParseExpr parses a standalone expression (testing / tooling helper).
func ParseExpr(src string, dialect Dialect) (Expr, error) {
	p, err := NewParser(src, dialect)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		t := p.cur()
		return nil, fmt.Errorf("sqlparse: unexpected %q after expression at line %d", t.Text, t.Line)
	}
	return e, nil
}

// --- token helpers ---

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) peekKw(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) error {
	if p.acceptKw(kw) {
		return nil
	}
	t := p.cur()
	return fmt.Errorf("sqlparse: expected %s at line %d col %d, got %q", kw, t.Line, t.Col, t.Text)
}

func (p *Parser) peekOp(op string) bool {
	t := p.cur()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if p.acceptOp(op) {
		return nil
	}
	t := p.cur()
	return fmt.Errorf("sqlparse: expected %q at line %d col %d, got %q", op, t.Line, t.Col, t.Text)
}

// implicitAlias reports whether the current token can serve as an implicit
// (AS-less) alias. UNION is carved out so it can introduce a set operation.
func (p *Parser) implicitAlias() bool {
	t := p.cur()
	if t.Kind == TokQuotedIdent {
		return true
	}
	return t.Kind == TokIdent && !strings.EqualFold(t.Text, "UNION")
}

// ident accepts an identifier or quoted identifier; some keywords are usable
// as identifiers in column positions (DATE, TIME, etc. are not — keep strict).
func (p *Parser) ident() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent || t.Kind == TokQuotedIdent {
		p.pos++
		return t.Text, nil
	}
	return "", fmt.Errorf("sqlparse: expected identifier at line %d col %d, got %q", t.Line, t.Col, t.Text)
}

// --- statements ---

func (p *Parser) parseStatement() (Stmt, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, fmt.Errorf("sqlparse: expected statement at line %d, got %q", t.Line, t.Text)
	}
	switch t.Text {
	case "SELECT", "SEL":
		if t.Text == "SEL" && p.dialect != DialectLegacy {
			return nil, fmt.Errorf("sqlparse: SEL abbreviation is legacy-only (line %d)", t.Line)
		}
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "TRUNCATE":
		return p.parseTruncate()
	case "COPY":
		if p.dialect != DialectCDW {
			return nil, fmt.Errorf("sqlparse: COPY INTO is CDW-only (line %d)", t.Line)
		}
		return p.parseCopy()
	default:
		return nil, fmt.Errorf("sqlparse: unsupported statement %q at line %d", t.Text, t.Line)
	}
}

func (p *Parser) parseTableName() (TableName, error) {
	first, err := p.ident()
	if err != nil {
		return TableName{}, err
	}
	if p.acceptOp(".") {
		second, err := p.ident()
		if err != nil {
			return TableName{}, err
		}
		return TableName{Schema: first, Name: second}, nil
	}
	return TableName{Name: first}, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	t := p.next() // SELECT / SEL
	if t.Text != "SELECT" && t.Text != "SEL" {
		return nil, fmt.Errorf("sqlparse: internal: parseSelect on %q", t.Text)
	}
	s := &SelectStmt{}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	// legacy TOP n
	if p.dialect == DialectLegacy && p.acceptKw("TOP") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = &n
	}
	// select list
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = &n
	}
	if p.cur().Kind == TokIdent && strings.EqualFold(p.cur().Text, "UNION") {
		p.next()
		if err := p.expectKw("ALL"); err != nil {
			return nil, fmt.Errorf("sqlparse: only UNION ALL is supported: %w", err)
		}
		if !p.peekKw("SELECT") && !p.peekKw("SEL") {
			return nil, fmt.Errorf("sqlparse: expected SELECT after UNION ALL at line %d", p.cur().Line)
		}
		// ORDER BY / LIMIT may only trail the final branch; a branch that
		// already consumed them cannot be unioned further.
		if len(s.OrderBy) > 0 || s.Limit != nil {
			return nil, fmt.Errorf("sqlparse: ORDER BY/LIMIT only allowed after the final UNION ALL branch")
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		// By induction the recursive parse hoisted the chain's trailing
		// clauses onto `next`; move them up to this head so interior
		// branches stay plain.
		s.Union = next
		s.OrderBy, next.OrderBy = next.OrderBy, nil
		s.Limit, next.Limit = next.Limit, nil
	}
	return s, nil
}

func (p *Parser) parseIntLiteral() (int64, error) {
	t := p.cur()
	if t.Kind != TokNumber {
		return 0, fmt.Errorf("sqlparse: expected number at line %d, got %q", t.Line, t.Text)
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlparse: bad integer %q at line %d", t.Text, t.Line)
	}
	p.pos++
	return n, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// qualified star: ident . *
	if p.cur().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		q := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: q}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.implicitAlias() {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseFromList() ([]TableExpr, error) {
	var out []TableExpr
	for {
		te, err := p.parseJoinedTable()
		if err != nil {
			return nil, err
		}
		out = append(out, te)
		if !p.acceptOp(",") {
			return out, nil
		}
	}
}

func (p *Parser) parseJoinedTable() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.acceptKw("JOIN"):
			jt = JoinInner
		case p.peekKw("INNER"):
			p.next()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = JoinInner
		case p.peekKw("LEFT"):
			p.next()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		case p.peekKw("CROSS"):
			p.next()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &Join{Type: jt, Left: left, Right: right}
		if jt != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.acceptOp("(") {
		if !p.peekKw("SELECT") && !p.peekKw("SEL") {
			return nil, fmt.Errorf("sqlparse: expected SELECT in derived table at line %d", p.cur().Line)
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st := &SubqueryTable{Select: sub}
		p.acceptKw("AS")
		if p.cur().Kind == TokIdent || p.cur().Kind == TokQuotedIdent {
			st.Alias = p.next().Text
		} else {
			return nil, fmt.Errorf("sqlparse: derived table requires an alias at line %d", p.cur().Line)
		}
		return st, nil
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Table: tn}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.implicitAlias() {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

func (p *Parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: tn}
	// optional column list: lookahead for '(' ident ... ')' followed by
	// VALUES/SELECT; "(SELECT" means no column list.
	if p.peekOp("(") && p.pos+1 < len(p.toks) &&
		!(p.toks[p.pos+1].Kind == TokKeyword && (p.toks[p.pos+1].Text == "SELECT" || p.toks[p.pos+1].Text == "SEL")) {
		p.next() // (
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKw("VALUES"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
	case p.peekKw("SELECT") || p.peekKw("SEL"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
	case p.peekOp("("):
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Select = sel
	default:
		return nil, fmt.Errorf("sqlparse: expected VALUES or SELECT at line %d", p.cur().Line)
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: tn}
	if p.cur().Kind == TokIdent || p.cur().Kind == TokQuotedIdent {
		u.Alias = p.next().Text
	}
	// Legacy places FROM before SET; CDW places it after. Accept both orders.
	if p.acceptKw("FROM") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		u.From = from
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: val})
		if !p.acceptOp(",") {
			break
		}
	}
	if u.From == nil && p.acceptKw("FROM") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		u.From = from
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	// legacy atomic upsert: UPDATE ... ELSE INSERT ...
	if p.acceptKw("ELSE") {
		if p.dialect != DialectLegacy {
			return nil, fmt.Errorf("sqlparse: UPDATE ... ELSE INSERT is legacy-only (line %d)", p.cur().Line)
		}
		if !p.peekKw("INSERT") {
			return nil, fmt.Errorf("sqlparse: expected INSERT after ELSE at line %d", p.cur().Line)
		}
		ins, err := p.parseInsert()
		if err != nil {
			return nil, err
		}
		return &UpsertStmt{Update: u, Insert: ins.(*InsertStmt)}, nil
	}
	return u, nil
}

func (p *Parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: tn}
	if p.cur().Kind == TokIdent || p.cur().Kind == TokQuotedIdent {
		d.Alias = p.next().Text
	}
	if p.acceptKw("USING") {
		using, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		d.Using = using
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *Parser) parseCreateTable() (Stmt, error) {
	p.next() // CREATE
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ct.Table = tn
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		case p.acceptKw("UNIQUE"):
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.Unique = append(ct.Unique, cols)
		default:
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			ty, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			def := ColumnDef{Name: name, Type: ty}
			for {
				switch {
				case p.acceptKw("NOT"):
					if err := p.expectKw("NULL"); err != nil {
						return nil, err
					}
					def.NotNull = true
					continue
				case p.acceptKw("NULL"):
					continue
				case p.acceptKw("DEFAULT"):
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					def.Default = e
					continue
				case p.acceptKw("PRIMARY"):
					if err := p.expectKw("KEY"); err != nil {
						return nil, err
					}
					ct.PrimaryKey = []string{def.Name}
					continue
				case p.acceptKw("UNIQUE"):
					ct.Unique = append(ct.Unique, []string{def.Name})
					continue
				}
				break
			}
			ct.Columns = append(ct.Columns, def)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(ct.Columns) == 0 {
		return nil, fmt.Errorf("sqlparse: CREATE TABLE %s has no columns", ct.Table)
	}
	return ct, nil
}

func (p *Parser) parseParenIdentList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// parseTypeName parses a type spelling in either dialect.
func (p *Parser) parseTypeName() (TypeName, error) {
	t := p.cur()
	var name string
	switch {
	case t.Kind == TokIdent:
		name = strings.ToUpper(p.next().Text)
	case t.Kind == TokKeyword && (t.Text == "DATE" || t.Text == "TIME" || t.Text == "TIMESTAMP" || t.Text == "CHARACTER"):
		name = p.next().Text
	default:
		return TypeName{}, fmt.Errorf("sqlparse: expected type name at line %d, got %q", t.Line, t.Text)
	}
	if name == "CHARACTER" && p.acceptKw("VARYING") {
		name = "VARCHAR"
	}
	if name == "DOUBLE" && p.cur().Kind == TokIdent && strings.EqualFold(p.cur().Text, "PRECISION") {
		p.next()
		name = "FLOAT"
	}
	ty := TypeName{Name: name}
	if p.acceptOp("(") {
		for {
			n, err := p.parseIntLiteral()
			if err != nil {
				return TypeName{}, err
			}
			ty.Args = append(ty.Args, int(n))
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return TypeName{}, err
		}
	}
	if p.acceptKw("CHARACTER") {
		if p.dialect != DialectLegacy {
			return TypeName{}, fmt.Errorf("sqlparse: CHARACTER SET clause is legacy-only (line %d)", p.cur().Line)
		}
		if err := p.expectKw("SET"); err != nil {
			return TypeName{}, err
		}
		cs, err := p.ident()
		if err != nil {
			return TypeName{}, err
		}
		ty.CharSet = strings.ToUpper(cs)
	}
	return ty, nil
}

func (p *Parser) parseDropTable() (Stmt, error) {
	p.next() // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	d := &DropTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	d.Table = tn
	return d, nil
}

func (p *Parser) parseTruncate() (Stmt, error) {
	p.next() // TRUNCATE
	p.acceptKw("TABLE")
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Table: tn}, nil
}

func (p *Parser) parseCopy() (Stmt, error) {
	p.next() // COPY
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	tn, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind != TokString {
		return nil, fmt.Errorf("sqlparse: COPY FROM requires a string URI at line %d", t.Line)
	}
	p.next()
	c := &CopyStmt{Table: tn, From: t.Text, Options: map[string]string{}}
	// FILES is a soft keyword: it only has meaning in this clause position,
	// so it is matched as an identifier instead of widening the keyword set.
	if ft := p.cur(); ft.Kind == TokIdent && strings.EqualFold(ft.Text, "FILES") {
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			nt := p.cur()
			if nt.Kind != TokString {
				return nil, fmt.Errorf("sqlparse: COPY FILES requires string names at line %d", nt.Line)
			}
			p.next()
			c.Files = append(c.Files, nt.Text)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("OPTIONS") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			var k string
			if kt := p.cur(); kt.Kind == TokKeyword {
				p.next()
				k = kt.Text
			} else {
				var err error
				if k, err = p.ident(); err != nil {
					return nil, err
				}
			}
			vt := p.cur()
			if vt.Kind != TokString {
				return nil, fmt.Errorf("sqlparse: COPY option %s requires a string value at line %d", k, vt.Line)
			}
			p.next()
			c.Options[strings.ToLower(k)] = vt.Text
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// --- expressions (precedence climbing) ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		// IS [NOT] NULL, [NOT] IN/BETWEEN/LIKE
		if p.acceptKw("IS") {
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
			continue
		}
		not := false
		save := p.pos
		if p.acceptKw("NOT") {
			not = true
		}
		switch {
		case p.acceptKw("IN"):
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			in := &InExpr{X: l, Not: not}
			if p.peekKw("SELECT") || p.peekKw("SEL") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				in.Sub = sub
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					in.List = append(in.List, e)
					if !p.acceptOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			l = in
			continue
		case p.acceptKw("BETWEEN"):
			lo, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
			continue
		case p.acceptKw("LIKE"):
			pat, err := p.parseConcat()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{X: l, Pattern: pat, Not: not}
			continue
		}
		if not {
			// NOT did not introduce IN/BETWEEN/LIKE: it belongs to a boolean
			// context above us.
			p.pos = save
			return l, nil
		}
		op := ""
		for _, cand := range []string{"=", "<>", "<=", ">=", "<", ">"} {
			if p.peekOp(cand) {
				op = cand
				break
			}
		}
		if op == "" {
			return l, nil
		}
		p.next()
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseConcat() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("||") {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("+"):
			op = "+"
		case p.acceptOp("-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		case p.acceptKw("MOD"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parsePower() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// right-associative
	if p.acceptOp("**") {
		r, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "**", L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.acceptOp("+") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "+", X: x}, nil
	}
	return p.parsePrimary()
}

// bindSlot returns the literal a bind marker named name stands for in a
// template parse, creating it at the marker's first occurrence, or nil.
func (p *Parser) bindSlot(name string) *Literal {
	if p.slots == nil {
		return nil
	}
	for i, m := range bindMarkers {
		if name == m {
			if p.slots[i] == nil {
				p.slots[i] = &Literal{Kind: LitInt}
			}
			return p.slots[i]
		}
	}
	return nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlparse: bad number %q at line %d", t.Text, t.Line)
			}
			return &Literal{Kind: LitFloat, Float: f}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, fmt.Errorf("sqlparse: bad number %q at line %d", t.Text, t.Line)
			}
			return &Literal{Kind: LitFloat, Float: f}, nil
		}
		return &Literal{Kind: LitInt, Int: n}, nil

	case TokString:
		p.next()
		return &Literal{Kind: LitString, Str: t.Text}, nil

	case TokPlaceholder:
		if lit := p.bindSlot(t.Text); lit != nil {
			p.next()
			return lit, nil
		}
		if p.dialect != DialectLegacy {
			return nil, fmt.Errorf("sqlparse: placeholder :%s not allowed in %s dialect (line %d)", t.Text, p.dialect, t.Line)
		}
		p.next()
		return &Placeholder{Name: t.Text}, nil

	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Kind: LitNull}, nil
		case "TRUE":
			p.next()
			return &Literal{Kind: LitBool, Bool: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Kind: LitBool, Bool: false}, nil
		case "DATE":
			// DATE 'YYYY-MM-DD' literal
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokString {
				p.next()
				s := p.next()
				return &Literal{Kind: LitDate, Str: s.Text}, nil
			}
			return nil, fmt.Errorf("sqlparse: bare DATE keyword at line %d", t.Line)
		case "CAST":
			return p.parseCast()
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub}, nil
		case "MOD":
			// MOD is both an infix operator and a two-argument function.
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "(" {
				p.next() // MOD
				p.next() // (
				l, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(","); err != nil {
					return nil, err
				}
				r, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &FuncCall{Name: "MOD", Args: []Expr{l, r}}, nil
			}
		case "COUNT":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			fc := &FuncCall{Name: "COUNT"}
			if p.acceptOp("*") {
				fc.Args = []Expr{&Star{}}
			} else {
				if p.acceptKw("DISTINCT") {
					fc.Distinct = true
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = []Expr{e}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		return nil, fmt.Errorf("sqlparse: unexpected keyword %q in expression at line %d", t.Text, t.Line)

	case TokIdent, TokQuotedIdent:
		p.next()
		// function call?
		if t.Kind == TokIdent && p.peekOp("(") {
			p.next() // (
			fc := &FuncCall{Name: strings.ToUpper(t.Text)}
			if p.acceptKw("DISTINCT") {
				fc.Distinct = true
			}
			if !p.acceptOp(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// qualified column
		if p.acceptOp(".") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Qualifier: t.Text, Name: name}, nil
		}
		return &ColRef{Name: t.Text}, nil

	case TokOp:
		if t.Text == "(" {
			p.next()
			if p.peekKw("SELECT") || p.peekKw("SEL") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sqlparse: unexpected token %q at line %d col %d", t.Text, t.Line, t.Col)
}

func (p *Parser) parseCast() (Expr, error) {
	p.next() // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	ty, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	c := &CastExpr{X: x, Type: ty}
	if p.acceptKw("FORMAT") {
		if p.dialect != DialectLegacy {
			return nil, fmt.Errorf("sqlparse: CAST ... FORMAT is legacy-only (line %d)", p.cur().Line)
		}
		ft := p.cur()
		if ft.Kind != TokString {
			return nil, fmt.Errorf("sqlparse: FORMAT requires a string at line %d", ft.Line)
		}
		p.next()
		c.Format = ft.Text
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // CASE
	c := &CaseExpr{}
	if !p.peekKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sqlparse: CASE requires at least one WHEN at line %d", p.cur().Line)
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
