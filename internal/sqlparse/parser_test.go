package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string, d Dialect) Stmt {
	t.Helper()
	s, err := Parse(src, d)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := LexAll(`SELECT a, "Quoted Id", 'it''s', 1.5e3, :FIELD -- comment
		/* block
		comment */ <> != <= || **`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "Quoted Id", ",", "it's", ",", "1.5e3", ",", "FIELD", "<>", "<>", "<=", "||", "**"}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("tokens = %q, want %q", texts, want)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "/* unterminated", "SELECT @"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := LexAll("SELECT\n  x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("x at line %d col %d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestParseExample21Insert(t *testing.T) {
	// The DML from the paper's Example 2.1.
	src := `insert into PROD.CUSTOMER values (
		trim(:CUST_ID), trim(:CUST_NAME),
		cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`
	s := mustParse(t, src, DialectLegacy)
	ins, ok := s.(*InsertStmt)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ins.Table.Schema != "PROD" || ins.Table.Name != "CUSTOMER" {
		t.Errorf("table = %v", ins.Table)
	}
	if len(ins.Rows) != 1 || len(ins.Rows[0]) != 3 {
		t.Fatalf("rows = %v", ins.Rows)
	}
	c, ok := ins.Rows[0][2].(*CastExpr)
	if !ok {
		t.Fatalf("third value is %T", ins.Rows[0][2])
	}
	if c.Type.Name != "DATE" || c.Format != "YYYY-MM-DD" {
		t.Errorf("cast = %+v", c)
	}
	if _, ok := c.X.(*Placeholder); !ok {
		t.Errorf("cast operand is %T", c.X)
	}
}

func TestPlaceholderRejectedInCDW(t *testing.T) {
	if _, err := Parse("insert into t values (:X)", DialectCDW); err == nil {
		t.Error("placeholder accepted in CDW dialect")
	}
	if _, err := Parse("select cast(x as DATE format 'Y') from t", DialectCDW); err == nil {
		t.Error("FORMAT cast accepted in CDW dialect")
	}
	if _, err := Parse("sel * from t", DialectCDW); err == nil {
		t.Error("SEL accepted in CDW dialect")
	}
}

func TestParseSelectFull(t *testing.T) {
	src := `SELECT DISTINCT c.id, count(*) AS n, sum(v.amt) total
		FROM prod.customer c
		LEFT JOIN prod.visits v ON c.id = v.cust_id
		WHERE c.joined >= DATE '2020-01-01' AND c.region IN ('a','b')
		GROUP BY c.id HAVING count(*) > 2
		ORDER BY n DESC, c.id LIMIT 10`
	s := mustParse(t, src, DialectCDW).(*SelectStmt)
	if !s.Distinct || len(s.Items) != 3 || s.Limit == nil || *s.Limit != 10 {
		t.Errorf("select head wrong: %+v", s)
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order by wrong: %+v", s.OrderBy)
	}
	j, ok := s.From[0].(*Join)
	if !ok || j.Type != JoinLeft {
		t.Fatalf("from = %#v", s.From[0])
	}
	if s.Items[1].Alias != "n" || s.Items[2].Alias != "total" {
		t.Errorf("aliases: %q %q", s.Items[1].Alias, s.Items[2].Alias)
	}
}

func TestParseLegacyTopAndSel(t *testing.T) {
	s := mustParse(t, "SEL TOP 5 * FROM t", DialectLegacy).(*SelectStmt)
	if s.Limit == nil || *s.Limit != 5 {
		t.Errorf("TOP not captured: %+v", s)
	}
	if !s.Items[0].Star {
		t.Error("star item missing")
	}
}

func TestParseQualifiedStar(t *testing.T) {
	s := mustParse(t, "SELECT t.*, u.x FROM t, u", DialectCDW).(*SelectStmt)
	if !s.Items[0].Star || s.Items[0].StarTable != "t" {
		t.Errorf("qualified star: %+v", s.Items[0])
	}
	if len(s.From) != 2 {
		t.Errorf("comma from list: %d", len(s.From))
	}
}

func TestParseInsertSelect(t *testing.T) {
	s := mustParse(t, "INSERT INTO tgt (a, b) SELECT x, y FROM src WHERE x > 0", DialectCDW).(*InsertStmt)
	if s.Select == nil || len(s.Columns) != 2 {
		t.Fatalf("insert-select: %+v", s)
	}
	// parenthesized select
	s = mustParse(t, "INSERT INTO tgt (SELECT x FROM src)", DialectCDW).(*InsertStmt)
	if s.Select == nil || len(s.Columns) != 0 {
		t.Fatalf("paren insert-select: %+v", s)
	}
}

func TestParseMultiRowValues(t *testing.T) {
	s := mustParse(t, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL)", DialectCDW).(*InsertStmt)
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if s.Rows[2][1].(*Literal).Kind != LitNull {
		t.Error("NULL literal wrong")
	}
}

func TestParseUpdateBothFromOrders(t *testing.T) {
	legacy := mustParse(t, "UPDATE tgt FROM stage s SET v = s.v WHERE tgt.k = s.k", DialectLegacy).(*UpdateStmt)
	cdw := mustParse(t, "UPDATE tgt SET v = s.v FROM stage s WHERE tgt.k = s.k", DialectCDW).(*UpdateStmt)
	for _, u := range []*UpdateStmt{legacy, cdw} {
		if len(u.From) != 1 || len(u.Set) != 1 || u.Where == nil {
			t.Errorf("update: %+v", u)
		}
	}
}

func TestParseDeleteUsing(t *testing.T) {
	d := mustParse(t, "DELETE FROM tgt t USING stage s WHERE t.k = s.k", DialectCDW).(*DeleteStmt)
	if d.Alias != "t" || len(d.Using) != 1 || d.Where == nil {
		t.Errorf("delete: %+v", d)
	}
}

func TestParseCreateTable(t *testing.T) {
	src := `CREATE TABLE IF NOT EXISTS prod.customer (
		cust_id VARCHAR(5) NOT NULL,
		cust_name VARCHAR(50) CHARACTER SET UNICODE,
		join_date DATE,
		balance DECIMAL(10,2) DEFAULT 0,
		PRIMARY KEY (cust_id),
		UNIQUE (cust_name, join_date)
	)`
	ct := mustParse(t, src, DialectLegacy).(*CreateTableStmt)
	if !ct.IfNotExists || len(ct.Columns) != 4 {
		t.Fatalf("create: %+v", ct)
	}
	if !ct.Columns[0].NotNull || ct.Columns[0].Type.Name != "VARCHAR" || ct.Columns[0].Type.Args[0] != 5 {
		t.Errorf("col0: %+v", ct.Columns[0])
	}
	if ct.Columns[1].Type.CharSet != "UNICODE" {
		t.Errorf("col1 charset: %+v", ct.Columns[1])
	}
	if ct.Columns[3].Default == nil {
		t.Error("default missing")
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "cust_id" {
		t.Errorf("pk: %v", ct.PrimaryKey)
	}
	if len(ct.Unique) != 1 || len(ct.Unique[0]) != 2 {
		t.Errorf("unique: %v", ct.Unique)
	}
}

func TestParseInlinePrimaryKey(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10) UNIQUE)", DialectCDW).(*CreateTableStmt)
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
		t.Errorf("pk: %v", ct.PrimaryKey)
	}
	if len(ct.Unique) != 1 || ct.Unique[0][0] != "v" {
		t.Errorf("unique: %v", ct.Unique)
	}
}

func TestParseDropTruncate(t *testing.T) {
	d := mustParse(t, "DROP TABLE IF EXISTS s.t", DialectCDW).(*DropTableStmt)
	if !d.IfExists || d.Table.Schema != "s" {
		t.Errorf("drop: %+v", d)
	}
	tr := mustParse(t, "TRUNCATE TABLE t", DialectCDW).(*TruncateStmt)
	if tr.Table.Name != "t" {
		t.Errorf("truncate: %+v", tr)
	}
}

func TestParseCopy(t *testing.T) {
	c := mustParse(t, "COPY INTO stage FROM 'store://job1/' OPTIONS (format 'csv', gzip 'true')", DialectCDW).(*CopyStmt)
	if c.From != "store://job1/" || c.Options["format"] != "csv" || c.Options["gzip"] != "true" {
		t.Errorf("copy: %+v", c)
	}
	if len(c.Files) != 0 {
		t.Errorf("prefix copy grew a manifest: %+v", c.Files)
	}
}

func TestParseCopyFilesManifest(t *testing.T) {
	c := mustParse(t, "COPY INTO stage FROM 'store://job1/' FILES ('a.csv', 'b.csv.gz') OPTIONS (format 'csv')",
		DialectCDW).(*CopyStmt)
	if len(c.Files) != 2 || c.Files[0] != "a.csv" || c.Files[1] != "b.csv.gz" {
		t.Errorf("manifest: %+v", c.Files)
	}
	if c.Options["format"] != "csv" {
		t.Errorf("options after manifest: %+v", c.Options)
	}
	// manifest without options
	c = mustParse(t, "COPY INTO stage FROM 'store://job1/' FILES ('only.csv')", DialectCDW).(*CopyStmt)
	if len(c.Files) != 1 || c.Files[0] != "only.csv" {
		t.Errorf("manifest: %+v", c.Files)
	}
	// non-string manifest entries are rejected
	if _, err := Parse("COPY INTO stage FROM 'store://job1/' FILES (a)", DialectCDW); err == nil {
		t.Error("bare identifier in FILES accepted")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 - 4", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	// ((1 + (2*3)) - 4)
	top := e.(*BinaryExpr)
	if top.Op != "-" {
		t.Fatalf("top op %q", top.Op)
	}
	l := top.L.(*BinaryExpr)
	if l.Op != "+" || l.R.(*BinaryExpr).Op != "*" {
		t.Errorf("precedence wrong: %+v", l)
	}

	e, err = ParseExpr("a OR b AND NOT c = d", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top %q", or.Op)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("and %q", and.Op)
	}
	if _, ok := and.R.(*UnaryExpr); !ok {
		t.Errorf("NOT missing: %T", and.R)
	}
}

func TestParsePowerRightAssoc(t *testing.T) {
	e, err := ParseExpr("2 ** 3 ** 2", DialectLegacy)
	if err != nil {
		t.Fatal(err)
	}
	top := e.(*BinaryExpr)
	if top.Op != "**" {
		t.Fatal("top not **")
	}
	if r, ok := top.R.(*BinaryExpr); !ok || r.Op != "**" {
		t.Error("** should be right-associative")
	}
}

func TestParseComplexPredicates(t *testing.T) {
	e, err := ParseExpr("x IS NOT NULL AND y NOT IN (1,2) AND z NOT BETWEEN 1 AND 5 AND w NOT LIKE 'a%'", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	walkExpr(e, func(x Expr) {
		switch v := x.(type) {
		case *IsNullExpr:
			if v.Not {
				kinds = append(kinds, "isnotnull")
			}
		case *InExpr:
			if v.Not {
				kinds = append(kinds, "notin")
			}
		case *BetweenExpr:
			if v.Not {
				kinds = append(kinds, "notbetween")
			}
		case *LikeExpr:
			if v.Not {
				kinds = append(kinds, "notlike")
			}
		}
	})
	if len(kinds) != 4 {
		t.Errorf("predicates found: %v", kinds)
	}
}

func TestParseInSubqueryAndExists(t *testing.T) {
	e, err := ParseExpr("x IN (SELECT id FROM t) AND EXISTS (SELECT 1 FROM u WHERE u.k = x)", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	and := e.(*BinaryExpr)
	in := and.L.(*InExpr)
	if in.Sub == nil {
		t.Error("IN subquery missing")
	}
	ex := and.R.(*ExistsExpr)
	if ex.Sub == nil {
		t.Error("EXISTS subquery missing")
	}
}

func TestParseScalarSubquery(t *testing.T) {
	e, err := ParseExpr("(SELECT max(x) FROM t) + 1", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*BinaryExpr)
	if _, ok := b.L.(*SubqueryExpr); !ok {
		t.Errorf("scalar subquery: %T", b.L)
	}
}

func TestParseCase(t *testing.T) {
	e, err := ParseExpr("CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'lo' ELSE NULL END", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*CaseExpr)
	if c.Operand != nil || len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case: %+v", c)
	}
	e, err = ParseExpr("CASE x WHEN 1 THEN 'a' END", DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	c = e.(*CaseExpr)
	if c.Operand == nil || len(c.Whens) != 1 || c.Else != nil {
		t.Errorf("operand case: %+v", c)
	}
	if _, err := ParseExpr("CASE END", DialectCDW); err == nil {
		t.Error("empty CASE accepted")
	}
}

func TestParseCountVariants(t *testing.T) {
	for _, src := range []string{"count(*)", "count(x)", "count(DISTINCT x)", "COUNT ( * )"} {
		e, err := ParseExpr(src, DialectCDW)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		fc := e.(*FuncCall)
		if fc.Name != "COUNT" || len(fc.Args) != 1 {
			t.Errorf("%q -> %+v", src, fc)
		}
	}
}

func TestParseConcatAndMod(t *testing.T) {
	e, err := ParseExpr("a || b || 'x'", DialectLegacy)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinaryExpr).Op != "||" {
		t.Error("concat wrong")
	}
	e, err = ParseExpr("a MOD 3", DialectLegacy)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinaryExpr).Op != "%" {
		t.Error("MOD wrong")
	}
}

func TestParseAllMultiStatement(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1);;
		SELECT * FROM t;
	`, DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT FROM t", "INSERT t VALUES (1)",
		"INSERT INTO t", "UPDATE t", "DELETE t", "CREATE TABLE t",
		"CREATE TABLE t ()", "SELECT * FROM", "SELECT a FROM t WHERE",
		"SELECT a b c FROM t", "COPY INTO t FROM x", "DROP t",
		"SELECT * FROM (SELECT 1)", // derived table needs alias
		"SELECT * FROM t JOIN u",   // missing ON
		"SELECT (1", "INSERT INTO t VALUES (1", "GRANT ALL",
	}
	for _, src := range bad {
		if _, err := Parse(src, DialectCDW); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestWalkExprsCoversSubqueries(t *testing.T) {
	s := mustParse(t, `SELECT (SELECT max(y) FROM u WHERE u.k = t.k) FROM t
		WHERE EXISTS (SELECT 1 FROM v WHERE v.n IN (SELECT n FROM w))`, DialectCDW)
	count := 0
	WalkExprs(s, func(e Expr) {
		if c, ok := e.(*ColRef); ok && strings.EqualFold(c.Name, "n") {
			count++
		}
	})
	if count < 2 {
		t.Errorf("walk missed subquery columns: %d", count)
	}
}

func TestParseUpsert(t *testing.T) {
	src := `UPDATE t SET v = :V WHERE k = :K ELSE INSERT INTO t VALUES (:K, :V)`
	s := mustParse(t, src, DialectLegacy)
	up, ok := s.(*UpsertStmt)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if up.Update.Where == nil || len(up.Update.Set) != 1 {
		t.Errorf("update half: %+v", up.Update)
	}
	if len(up.Insert.Rows) != 1 || len(up.Insert.Rows[0]) != 2 {
		t.Errorf("insert half: %+v", up.Insert)
	}
	// legacy-only
	if _, err := Parse("UPDATE t SET v = 1 WHERE k = 1 ELSE INSERT INTO t VALUES (1, 2)", DialectCDW); err == nil {
		t.Error("upsert accepted in CDW dialect")
	}
	// print round trip in legacy dialect
	out, err := Print(s, DialectLegacy)
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustParse(t, out, DialectLegacy)
	if _, ok := s2.(*UpsertStmt); !ok {
		t.Errorf("reprint lost upsert: %s", out)
	}
	// CDW printing must refuse
	if _, err := Print(s, DialectCDW); err == nil {
		t.Error("upsert printed in CDW dialect")
	}
	// ELSE must be followed by INSERT
	if _, err := Parse("UPDATE t SET v = 1 WHERE k = 1 ELSE DELETE FROM t", DialectLegacy); err == nil {
		t.Error("ELSE DELETE accepted")
	}
}

// Regressions found by FuzzParse.
func TestFuzzRegressions(t *testing.T) {
	// a table with constraints but no columns must not parse
	if _, err := Parse("CREATE TABLE A(PRIMARY KEY(A))", DialectCDW); err == nil {
		t.Error("column-less CREATE TABLE accepted")
	}
	// CHARACTER SET is legacy-only
	if _, err := Parse("CREATE TABLE A(A VARCHAR(5) CHARACTER SET UNICODE)", DialectCDW); err == nil {
		t.Error("CHARACTER SET accepted in CDW dialect")
	}
	// COPY INTO is CDW-only
	if _, err := Parse("COPY INTO t FROM 'store://x/'", DialectLegacy); err == nil {
		t.Error("COPY accepted in legacy dialect")
	}
	// legacy cannot express a limit over a union
	s := mustParse(t, "SEL a FROM t UNION ALL SEL TOP 3 b FROM u", DialectLegacy)
	if _, err := Print(s, DialectLegacy); err == nil {
		t.Error("legacy union+limit printed")
	}
}

func TestParseTableNameInvertsString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TableName
	}{
		{"PROD.CUSTOMER", TableName{Schema: "PROD", Name: "CUSTOMER"}},
		{"CUSTOMER", TableName{Name: "CUSTOMER"}},
		{"a.b.c", TableName{Schema: "a", Name: "b.c"}}, // first dot splits
	} {
		got := ParseTableName(tc.in)
		if got != tc.want || got.String() != tc.in {
			t.Errorf("ParseTableName(%q) = %+v (%q), want %+v", tc.in, got, got.String(), tc.want)
		}
	}
}
