package sqlxlate

import (
	"strings"
	"testing"

	"etlvirt/internal/ltype"
	"etlvirt/internal/sqlparse"
)

func custLayout() *ltype.Layout {
	return &ltype.Layout{Name: "CustLayout", Fields: []ltype.Field{
		{Name: "CUST_ID", Type: ltype.VarChar(5)},
		{Name: "CUST_NAME", Type: ltype.VarChar(50)},
		{Name: "JOIN_DATE", Type: ltype.VarChar(10)},
	}}
}

func jobTranslator() *Translator {
	return &Translator{
		Stage:      sqlparse.TableName{Schema: "etl_stage", Name: "job1"},
		StageAlias: "s",
		Layout:     custLayout(),
	}
}

func TestTranslateExample21DML(t *testing.T) {
	tr := jobTranslator()
	dml, err := tr.TranslateDML(`insert into PROD.CUSTOMER values (
		trim(:CUST_ID), trim(:CUST_NAME),
		cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`)
	if err != nil {
		t.Fatal(err)
	}
	if dml.Kind != DMLInsert || dml.Target.String() != "PROD.CUSTOMER" {
		t.Errorf("dml head: %+v", dml)
	}
	sql, err := dml.Apply.SQL(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := "INSERT INTO PROD.CUSTOMER SELECT TRIM(s.CUST_ID), TRIM(s.CUST_NAME), TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') FROM etl_stage.job1 s WHERE s.__seq BETWEEN 1 AND 100"
	if sql != want {
		t.Errorf("apply SQL:\n got %s\nwant %s", sql, want)
	}
	// re-rendering with a new range mutates only the bounds
	sql2, err := dml.Apply.SQL(42, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql2, "BETWEEN 42 AND 42") {
		t.Errorf("range not updated: %s", sql2)
	}
	// positional insert exprs recorded
	if _, ok := dml.PositionalInsertExpr(0); !ok {
		t.Error("positional expr missing")
	}
	// CDW dialect parses the output
	if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
		t.Errorf("translated SQL does not parse in CDW dialect: %v", err)
	}
}

func TestTranslateDMLUpdateDelete(t *testing.T) {
	tr := jobTranslator()
	dml, err := tr.TranslateDML("UPDATE PROD.CUSTOMER SET CUST_NAME = trim(:CUST_NAME) WHERE CUST_ID = trim(:CUST_ID)")
	if err != nil {
		t.Fatal(err)
	}
	sql, _ := dml.Apply.SQL(5, 10)
	if !strings.Contains(sql, "FROM etl_stage.job1 s") || !strings.Contains(sql, "s.__seq BETWEEN 5 AND 10") {
		t.Errorf("update SQL: %s", sql)
	}
	if dml.Kind != DMLUpdate {
		t.Errorf("kind = %v", dml.Kind)
	}
	if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
		t.Errorf("update output unparseable: %v\n%s", err, sql)
	}

	dml, err = tr.TranslateDML("DELETE FROM PROD.CUSTOMER WHERE CUST_ID = trim(:CUST_ID)")
	if err != nil {
		t.Fatal(err)
	}
	sql, _ = dml.Apply.SQL(1, 2)
	if !strings.Contains(sql, "USING etl_stage.job1 s") {
		t.Errorf("delete SQL: %s", sql)
	}
	if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
		t.Errorf("delete output unparseable: %v\n%s", err, sql)
	}
}

func TestTranslateDMLErrors(t *testing.T) {
	tr := jobTranslator()
	bad := []string{
		"insert into t values (:NOPE)",                             // unknown field
		"insert into t values (1), (2)",                            // multiple rows
		"insert into t select * from u",                            // insert-select
		"create table t (a INTEGER)",                               // not DML
		"insert into t values (cast(:CUST_ID as BYTE format 'X'))", // untranslatable format
	}
	for _, src := range bad {
		if _, err := tr.TranslateDML(src); err == nil {
			t.Errorf("TranslateDML(%q) succeeded", src)
		}
	}
	noCtx := &Translator{}
	if _, err := noCtx.TranslateDML("insert into t values (:A)"); err == nil {
		t.Error("missing staging context accepted")
	}
}

func TestTranslateFunctions(t *testing.T) {
	tr := &Translator{}
	cases := []struct{ in, want string }{
		{"SELECT ZEROIFNULL(x) FROM t", "SELECT COALESCE(x, 0) FROM t"},
		{"SELECT NULLIFZERO(x) FROM t", "SELECT NULLIF(x, 0) FROM t"},
		{"SELECT INDEX(a, b) FROM t", "SELECT POSITION(a, b) FROM t"},
		{"SELECT CHARACTERS(a) FROM t", "SELECT LENGTH(a) FROM t"},
		{"SEL TOP 3 a FROM t", "SELECT a FROM t LIMIT 3"},
		{"SELECT a MOD 2 FROM t", "SELECT a % 2 FROM t"},
		{"SELECT cast(x as CHAR(10) format 'YYYY-MM-DD') FROM t", "SELECT TO_CHAR(x, 'YYYY-MM-DD') FROM t"},
		{"SELECT cast(x as TIMESTAMP format 'YYYY-MM-DD HH24:MI:SS') FROM t", "SELECT TO_TIMESTAMP(x, 'YYYY-MM-DD HH24:MI:SS') FROM t"},
	}
	for _, c := range cases {
		got, err := tr.Translate(c.in)
		if err != nil {
			t.Errorf("Translate(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Translate(%q)\n got %s\nwant %s", c.in, got, c.want)
		}
	}
}

func TestTranslateCreateTable(t *testing.T) {
	tr := &Translator{}
	got, err := tr.Translate(`CREATE TABLE PROD.CUSTOMER (
		CUST_ID VARCHAR(5) NOT NULL,
		CUST_NAME VARCHAR(50) CHARACTER SET UNICODE,
		FLAGS BYTEINT,
		PAYLOAD VARBYTE(100),
		JOIN_DATE DATE,
		PRIMARY KEY (CUST_ID))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NVARCHAR(50)", "SMALLINT", "VARBINARY(100)", "PRIMARY KEY (CUST_ID)"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %s", want, got)
		}
	}
	if strings.Contains(got, "CHARACTER SET") {
		t.Errorf("CHARACTER SET leaked: %s", got)
	}
	if _, err := sqlparse.Parse(got, sqlparse.DialectCDW); err != nil {
		t.Errorf("output unparseable: %v", err)
	}
}

func TestSchemaMapping(t *testing.T) {
	tr := &Translator{SchemaMap: map[string]string{"PROD": "analytics"}}
	got, err := tr.Translate("SELECT * FROM PROD.CUSTOMER c JOIN other.t o ON c.k = o.k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "analytics.CUSTOMER") || !strings.Contains(got, "other.t") {
		t.Errorf("schema map: %s", got)
	}
}

func TestMapLegacyType(t *testing.T) {
	cases := []struct {
		in   ltype.Type
		want string
	}{
		{ltype.Simple(ltype.KindByteInt), "SMALLINT"},
		{ltype.Simple(ltype.KindInteger), "INTEGER"},
		{ltype.Simple(ltype.KindBigInt), "BIGINT"},
		{ltype.Simple(ltype.KindFloat), "DOUBLE"},
		{ltype.Decimal(10, 2), "DECIMAL"},
		{ltype.VarChar(5), "VARCHAR"},
		{ltype.Type{Kind: ltype.KindVarChar, Length: 5, CharSet: ltype.CharSetUnicode}, "NVARCHAR"},
		{ltype.Simple(ltype.KindDate), "DATE"},
		{ltype.Type{Kind: ltype.KindVarByte, Length: 4}, "VARBINARY"},
	}
	for _, c := range cases {
		got := MapLegacyType(c.in)
		if got.Name != c.want {
			t.Errorf("MapLegacyType(%s) = %s, want %s", c.in, got.Name, c.want)
		}
	}
}

func TestStagingDDL(t *testing.T) {
	ddl, err := StagingDDL(sqlparse.TableName{Schema: "etl_stage", Name: "job1"}, custLayout())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"__seq BIGINT NOT NULL", "CUST_ID VARCHAR(5)", "JOIN_DATE VARCHAR(10)"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("missing %q in %s", want, ddl)
		}
	}
	if _, err := sqlparse.Parse(ddl, sqlparse.DialectCDW); err != nil {
		t.Errorf("staging DDL unparseable: %v", err)
	}
	// binary fields stage as hex text
	binLayout := &ltype.Layout{Name: "B", Fields: []ltype.Field{
		{Name: "P", Type: ltype.Type{Kind: ltype.KindVarByte, Length: 8}},
	}}
	ddl, err = StagingDDL(sqlparse.TableName{Name: "s2"}, binLayout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ddl, "P VARCHAR(16)") {
		t.Errorf("binary staging: %s", ddl)
	}
}

func TestErrorTableDDL(t *testing.T) {
	ddl, err := ErrorTableDDL(sqlparse.TableName{Schema: "PROD", Name: "CUSTOMER_ET"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SEQNO", "ERRCODE", "ERRFIELD", "ERRMSG"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("missing %q in %s", want, ddl)
		}
	}
	if _, err := sqlparse.Parse(ddl, sqlparse.DialectCDW); err != nil {
		t.Errorf("error table DDL unparseable: %v", err)
	}
}

func TestDupCheckQueries(t *testing.T) {
	tr := jobTranslator()
	dml, err := tr.TranslateDML(`insert into PROD.CUSTOMER values (
		trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))`)
	if err != nil {
		t.Fatal(err)
	}
	keyExpr, ok := dml.PositionalInsertExpr(0)
	if !ok {
		t.Fatal("missing key expr")
	}
	intra, target, err := tr.DupCheckQueries(dml, []string{"CUST_ID"}, []sqlparse.Expr{keyExpr})
	if err != nil {
		t.Fatal(err)
	}
	isql, err := intra.SQL(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(isql, "GROUP BY TRIM(s.CUST_ID)") || !strings.Contains(isql, "HAVING COUNT(*) > 1") {
		t.Errorf("intra SQL: %s", isql)
	}
	tsql, err := target.SQL(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsql, "JOIN PROD.CUSTOMER t ON t.CUST_ID = TRIM(s.CUST_ID)") {
		t.Errorf("target SQL: %s", tsql)
	}
	for _, sql := range []string{isql, tsql} {
		if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
			t.Errorf("dup query unparseable: %v\n%s", err, sql)
		}
	}
	if _, _, err := tr.DupCheckQueries(dml, nil, nil); err == nil {
		t.Error("empty key spec accepted")
	}
}

func TestLocateQuery(t *testing.T) {
	tr := jobTranslator()
	dml, err := tr.TranslateDML(`insert into PROD.CUSTOMER values (
		trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))`)
	if err != nil {
		t.Fatal(err)
	}
	keyExpr, _ := dml.PositionalInsertExpr(0)
	probe, err := tr.LocateQuery(dml, []Key{{Cols: []string{"CUST_ID"}, Exprs: []sqlparse.Expr{keyExpr}}})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := probe.SQL(11, 20)
	if err != nil {
		t.Fatal(err)
	}
	const (
		rng  = "s.__seq BETWEEN 11 AND 20"
		want = "SELECT s.__seq, 0 FROM etl_stage.job1 s WHERE " + rng +
			" AND s.JOIN_DATE IS NOT NULL AND TRY_TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') IS NULL" +
			" UNION ALL SELECT s.__seq, 1 FROM etl_stage.job1 s JOIN PROD.CUSTOMER t ON t.CUST_ID = TRIM(s.CUST_ID) WHERE " + rng +
			" UNION ALL SELECT s.__seq, 1 FROM etl_stage.job1 s JOIN (SELECT s.__seq, TRIM(s.CUST_ID) AS k0 FROM etl_stage.job1 s WHERE " + rng +
			") s2 ON s2.k0 = TRIM(s.CUST_ID) WHERE " + rng + " AND s2.__seq < s.__seq"
	)
	if sql != want {
		t.Errorf("probe SQL\n got: %s\nwant: %s", sql, want)
	}
	if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
		t.Errorf("probe unparseable: %v", err)
	}

	// Without a key only the conversion branch is left; with neither there
	// is nothing to probe.
	if probe, err = tr.LocateQuery(dml, nil); err != nil || probe == nil {
		t.Fatalf("keyless probe: %v, %v", probe, err)
	}
	if sql, _ := probe.SQL(1, 2); strings.Contains(sql, "UNION") {
		t.Errorf("keyless probe: %s", sql)
	}
	plain, err := tr.TranslateDML(`insert into PROD.CUSTOMER values (trim(:CUST_ID), :CUST_NAME, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	if probe, err = tr.LocateQuery(plain, nil); err != nil || probe != nil {
		t.Errorf("nothing to probe: %v, %v", probe, err)
	}
	if _, err := tr.LocateQuery(dml, []Key{{Cols: []string{"CUST_ID"}}}); err == nil {
		t.Error("mismatched key spec accepted")
	}
}

func TestAnalyze(t *testing.T) {
	rep := Analyze(`
		SELECT ZEROIFNULL(x) FROM t;
		insert into tgt values (cast(:F as DATE format 'YYYY-MM-DD'));
		SELECT cast(x as BYTE(4) format 'X') FROM t;
	`)
	if rep.Statements != 3 {
		t.Fatalf("statements = %d", rep.Statements)
	}
	var constructs []string
	for _, f := range rep.Findings {
		constructs = append(constructs, f.Construct)
	}
	joined := strings.Join(constructs, ",")
	for _, want := range []string{"legacy-function", "format-cast", "placeholder", "untranslatable"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing construct %q in %v", want, constructs)
		}
	}
	if len(rep.ManualRewrites()) == 0 {
		t.Error("manual rewrite not flagged for BYTE format cast")
	}
	// >99% story: translatable statements counted
	if rep.Translatable < 1 {
		t.Errorf("translatable = %d", rep.Translatable)
	}
	// garbage input
	rep = Analyze("NOT SQL AT ALL")
	if len(rep.Findings) == 0 {
		t.Error("unparseable script produced no findings")
	}
}

func TestTranslateUpsertDML(t *testing.T) {
	tr := jobTranslator()
	dml, err := tr.TranslateDML(`UPDATE PROD.CUSTOMER SET CUST_NAME = trim(:CUST_NAME)
		WHERE CUST_ID = trim(:CUST_ID)
		ELSE INSERT INTO PROD.CUSTOMER VALUES (
			trim(:CUST_ID), trim(:CUST_NAME),
			cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))`)
	if err != nil {
		t.Fatal(err)
	}
	if dml.Kind != DMLUpsert || dml.ApplySecond == nil {
		t.Fatalf("dml: %+v", dml)
	}
	upd, err := dml.Apply.SQL(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(upd, "UPDATE PROD.CUSTOMER SET CUST_NAME = TRIM(s.CUST_NAME)") ||
		!strings.Contains(upd, "s.__seq BETWEEN 1 AND 10") {
		t.Errorf("update half: %s", upd)
	}
	ins, err := dml.ApplySecond.SQL(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ins, "NOT EXISTS (SELECT 1 FROM PROD.CUSTOMER WHERE CUST_ID = TRIM(s.CUST_ID))") {
		t.Errorf("insert guard: %s", ins)
	}
	for _, sql := range []string{upd, ins} {
		if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
			t.Errorf("unparseable: %v\n%s", err, sql)
		}
	}
	// mismatched targets rejected
	if _, err := tr.TranslateDML(
		"UPDATE a SET v = :CUST_ID WHERE k = :CUST_ID ELSE INSERT INTO b VALUES (:CUST_ID)"); err == nil {
		t.Error("mismatched upsert targets accepted")
	}
}

func TestTranslateUnion(t *testing.T) {
	tr := &Translator{}
	got, err := tr.Translate("SEL ZEROIFNULL(a) FROM t UNION ALL SEL b FROM u ORDER BY 'k'")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT COALESCE(a, 0) FROM t UNION ALL SELECT b FROM u ORDER BY 'k'"
	if got != want {
		t.Errorf("got %s\nwant %s", got, want)
	}
}

func TestAnalyzeUpsert(t *testing.T) {
	rep := Analyze("UPDATE t SET v = :A WHERE k = :A ELSE INSERT INTO t VALUES (:A, :A);")
	if rep.Statements != 1 || rep.Translatable != 1 {
		t.Errorf("upsert analysis: %+v", rep)
	}
}
