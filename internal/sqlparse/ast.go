package sqlparse

import "strings"

// Node is the interface implemented by all AST nodes.
type Node interface{ node() }

// Stmt is a SQL statement.
type Stmt interface {
	Node
	stmt()
}

// Expr is a SQL expression.
type Expr interface {
	Node
	expr()
}

// TableName is a possibly schema-qualified table name.
type TableName struct {
	Schema string // empty when unqualified
	Name   string
}

func (t TableName) node() {}

// String renders the name with a dot separator, without quoting.
func (t TableName) String() string {
	if t.Schema != "" {
		return t.Schema + "." + t.Name
	}
	return t.Name
}

// ParseTableName splits a "SCHEMA.NAME" spelling at its first dot, the
// inverse of String; a name without a dot is unqualified.
func ParseTableName(s string) TableName {
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return TableName{Schema: s[:i], Name: s[i+1:]}
	}
	return TableName{Name: s}
}

// Equal compares names case-insensitively.
func (t TableName) Equal(o TableName) bool {
	return strings.EqualFold(t.Schema, o.Schema) && strings.EqualFold(t.Name, o.Name)
}

// TypeName is a SQL type as written, dialect-agnostic.
type TypeName struct {
	Name    string // upper-cased base name, e.g. "VARCHAR", "DECIMAL", "NVARCHAR"
	Args    []int  // length or precision/scale
	CharSet string // legacy: "LATIN"/"UNICODE" when CHARACTER SET was given
}

func (t TypeName) node() {}

// --- Statements ---

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr // empty for FROM-less selects
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64 // LIMIT n (CDW) or TOP n (legacy)
	// Union chains a UNION ALL branch evaluated after this select; ORDER BY
	// and LIMIT on the head apply to the combined result.
	Union *SelectStmt
}

func (*SelectStmt) node() {}
func (*SelectStmt) stmt() {}

// SelectItem is one projection: an expression with an optional alias, or a
// star (optionally qualified: t.*).
type SelectItem struct {
	Star      bool
	StarTable string // qualifier for t.*
	Expr      Expr
	Alias     string
}

func (SelectItem) node() {}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (OrderItem) node() {}

// TableExpr is a FROM-clause item.
type TableExpr interface {
	Node
	tableExpr()
}

// TableRef is a base-table reference with an optional alias.
type TableRef struct {
	Table TableName
	Alias string
}

func (*TableRef) node()      {}
func (*TableRef) tableExpr() {}

// SubqueryTable is a derived table: (SELECT ...) alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryTable) node()      {}
func (*SubqueryTable) tableExpr() {}

// JoinType distinguishes join flavors.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinCross
)

// String names the join type in SQL.
func (j JoinType) String() string {
	switch j {
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// Join combines two table expressions.
type Join struct {
	Type  JoinType
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for cross joins
}

func (*Join) node()      {}
func (*Join) tableExpr() {}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...)[, ...] or INSERT ... SELECT.
type InsertStmt struct {
	Table   TableName
	Columns []string
	Rows    [][]Expr    // nil when Select is set
	Select  *SelectStmt // nil when Rows is set
}

func (*InsertStmt) node() {}
func (*InsertStmt) stmt() {}

// Assignment is one SET column = expr.
type Assignment struct {
	Column string
	Value  Expr
}

func (Assignment) node() {}

// UpdateStmt is UPDATE t [alias] [FROM src] SET ... WHERE ...
// The legacy dialect also accepts UPDATE t FROM s SET ...; both normalize to
// this shape.
type UpdateStmt struct {
	Table TableName
	Alias string
	Set   []Assignment
	From  []TableExpr // additional source tables (CDW-style UPDATE ... FROM)
	Where Expr
}

func (*UpdateStmt) node() {}
func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM t [alias] [USING src] WHERE ...
type DeleteStmt struct {
	Table TableName
	Alias string
	Using []TableExpr
	Where Expr
}

func (*DeleteStmt) node() {}
func (*DeleteStmt) stmt() {}

// UpsertStmt is the legacy atomic upsert: UPDATE ... ELSE INSERT ...
// (per input row, update the matching target row, else insert a new one).
// Legacy-dialect only; the cross compiler rewrites it into a set-oriented
// UPDATE plus a NOT EXISTS-guarded INSERT.
type UpsertStmt struct {
	Update *UpdateStmt
	Insert *InsertStmt
}

func (*UpsertStmt) node() {}
func (*UpsertStmt) stmt() {}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    TypeName
	NotNull bool
	Default Expr
}

func (ColumnDef) node() {}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table       TableName
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string   // declared primary key (may be unenforced by the engine)
	Unique      [][]string // declared unique constraints
}

func (*CreateTableStmt) node() {}
func (*CreateTableStmt) stmt() {}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    TableName
	IfExists bool
}

func (*DropTableStmt) node() {}
func (*DropTableStmt) stmt() {}

// TruncateStmt is TRUNCATE TABLE.
type TruncateStmt struct {
	Table TableName
}

func (*TruncateStmt) node() {}
func (*TruncateStmt) stmt() {}

// CopyStmt is the CDW bulk-ingest statement:
//
//	COPY INTO t FROM 'store://prefix/' FILES ('a.csv', 'b.csv.gz') OPTIONS (format 'csv', gzip 'true')
//
// Without a FILES manifest the engine ingests every object under the From
// prefix; with one it ingests exactly the named objects (resolved relative
// to the prefix), in manifest order — the incremental multi-file COPY the
// virtualizer's copy scheduler issues while acquisition is still running.
type CopyStmt struct {
	Table   TableName
	From    string
	Files   []string
	Options map[string]string
}

func (*CopyStmt) node() {}
func (*CopyStmt) stmt() {}

// --- Expressions ---

// LiteralKind classifies literal values.
type LiteralKind int

// Literal kinds.
const (
	LitNull LiteralKind = iota
	LitInt
	LitFloat
	LitString
	LitBool
	LitDate // DATE 'YYYY-MM-DD'
)

// Literal is a constant.
type Literal struct {
	Kind  LiteralKind
	Int   int64
	Float float64
	Str   string // string and date literals
	Bool  bool
}

func (*Literal) node() {}
func (*Literal) expr() {}

// ColRef is a possibly qualified column reference.
type ColRef struct {
	Qualifier string // table or alias, empty if none
	Name      string
}

func (*ColRef) node() {}
func (*ColRef) expr() {}

// Placeholder is a legacy named parameter :NAME bound to an input field.
type Placeholder struct {
	Name string
}

func (*Placeholder) node() {}
func (*Placeholder) expr() {}

// Star is the * inside COUNT(*).
type Star struct{}

func (*Star) node() {}
func (*Star) expr() {}

// UnaryExpr is -x, +x or NOT x.
type UnaryExpr struct {
	Op string // "-", "+", "NOT"
	X  Expr
}

func (*UnaryExpr) node() {}
func (*UnaryExpr) expr() {}

// BinaryExpr is a binary operation. Op is one of
// + - * / % ** || = <> < <= > >= AND OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) node() {}
func (*BinaryExpr) expr() {}

// FuncCall is a function invocation.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool // COUNT(DISTINCT x)
}

func (*FuncCall) node() {}
func (*FuncCall) expr() {}

// CastExpr is CAST(x AS type [FORMAT 'fmt']). The FORMAT clause is legacy
// syntax; the CDW printer refuses it (sqlxlate rewrites it first).
type CastExpr struct {
	X      Expr
	Type   TypeName
	Format string // legacy FORMAT pattern, empty if absent
}

func (*CastExpr) node() {}
func (*CastExpr) expr() {}

// WhenClause is one WHEN ... THEN ... arm.
type WhenClause struct {
	Cond Expr
	Then Expr
}

func (WhenClause) node() {}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

func (*CaseExpr) node() {}
func (*CaseExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) node() {}
func (*IsNullExpr) expr() {}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
	Sub  *SelectStmt
}

func (*InExpr) node() {}
func (*InExpr) expr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) node() {}
func (*BetweenExpr) expr() {}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (*LikeExpr) node() {}
func (*LikeExpr) expr() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
}

func (*ExistsExpr) node() {}
func (*ExistsExpr) expr() {}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Sub *SelectStmt
}

func (*SubqueryExpr) node() {}
func (*SubqueryExpr) expr() {}

// WalkExprs calls fn for every expression in the statement tree, including
// nested subqueries, in unspecified order. It is used by sqlxlate for
// analysis passes.
func WalkExprs(s Stmt, fn func(Expr)) {
	switch st := s.(type) {
	case *SelectStmt:
		walkSelect(st, fn)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
		if st.Select != nil {
			walkSelect(st.Select, fn)
		}
	case *UpdateStmt:
		for _, a := range st.Set {
			walkExpr(a.Value, fn)
		}
		for _, te := range st.From {
			walkTableExpr(te, fn)
		}
		walkExpr(st.Where, fn)
	case *DeleteStmt:
		for _, te := range st.Using {
			walkTableExpr(te, fn)
		}
		walkExpr(st.Where, fn)
	case *UpsertStmt:
		WalkExprs(st.Update, fn)
		WalkExprs(st.Insert, fn)
	case *CreateTableStmt:
		for _, c := range st.Columns {
			walkExpr(c.Default, fn)
		}
	}
}

func walkSelect(s *SelectStmt, fn func(Expr)) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		walkExpr(it.Expr, fn)
	}
	for _, te := range s.From {
		walkTableExpr(te, fn)
	}
	walkExpr(s.Where, fn)
	for _, e := range s.GroupBy {
		walkExpr(e, fn)
	}
	walkExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		walkExpr(o.Expr, fn)
	}
	walkSelect(s.Union, fn)
}

func walkTableExpr(te TableExpr, fn func(Expr)) {
	switch t := te.(type) {
	case *SubqueryTable:
		walkSelect(t.Select, fn)
	case *Join:
		walkTableExpr(t.Left, fn)
		walkTableExpr(t.Right, fn)
		walkExpr(t.On, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *UnaryExpr:
		walkExpr(x.X, fn)
	case *BinaryExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *CastExpr:
		walkExpr(x.X, fn)
	case *CaseExpr:
		walkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(x.Else, fn)
	case *IsNullExpr:
		walkExpr(x.X, fn)
	case *InExpr:
		walkExpr(x.X, fn)
		for _, v := range x.List {
			walkExpr(v, fn)
		}
		walkSelect(x.Sub, fn)
	case *BetweenExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *LikeExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Pattern, fn)
	case *ExistsExpr:
		walkSelect(x.Sub, fn)
	case *SubqueryExpr:
		walkSelect(x.Sub, fn)
	}
}
