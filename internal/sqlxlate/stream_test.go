package sqlxlate

import (
	"strings"
	"testing"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/sqlparse"
)

func streamTranslator() (*Translator, sqlparse.TableName) {
	tr := &Translator{
		Stage:      sqlparse.TableName{Schema: "etl_stage", Name: "ups1"},
		StageAlias: "s",
		Layout:     custLayout(),
	}
	return tr, sqlparse.TableName{Schema: "etl_stage", Name: "del1"}
}

const streamApplySQL = `insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`

var customerCols = []string{"CUST_ID", "CUST_NAME", "JOIN_DATE"}

func TestTranslateStreamDMLShape(t *testing.T) {
	tr, delStage := streamTranslator()
	sd, err := tr.TranslateStreamDML(streamApplySQL, delStage, customerCols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Target.String() != "PROD.CUSTOMER" {
		t.Errorf("target = %s", sd.Target)
	}

	insSQL, err := sd.Insert.SQL(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"INSERT INTO PROD.CUSTOMER SELECT",
		"FROM etl_stage.ups1 s",
		"s.__seq BETWEEN 1 AND 50",
		"NOT EXISTS",
		"FROM PROD.CUSTOMER t",
		"t.CUST_ID = TRIM(s.CUST_ID)",
	} {
		if !strings.Contains(insSQL, want) {
			t.Errorf("insert SQL missing %q:\n%s", want, insSQL)
		}
	}

	updSQL, err := sd.Update.SQL(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"UPDATE PROD.CUSTOMER t",
		"FROM etl_stage.ups1 s",
		"SET CUST_NAME = TRIM(s.CUST_NAME)",
		"JOIN_DATE = TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD')",
		"t.CUST_ID = TRIM(s.CUST_ID)",
		"s.__seq BETWEEN 1 AND 50",
	} {
		if !strings.Contains(updSQL, want) {
			t.Errorf("update SQL missing %q:\n%s", want, updSQL)
		}
	}
	// The key column must not be assigned.
	if strings.Contains(updSQL, "SET CUST_ID") || strings.Contains(updSQL, ", CUST_ID =") {
		t.Errorf("update assigns key column:\n%s", updSQL)
	}

	delSQL, err := sd.Delete.SQL(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"DELETE FROM PROD.CUSTOMER t",
		"USING etl_stage.del1 sd",
		"t.CUST_ID = TRIM(sd.CUST_ID)",
		"sd.__seq BETWEEN 1 AND 50",
	} {
		if !strings.Contains(delSQL, want) {
			t.Errorf("delete SQL missing %q:\n%s", want, delSQL)
		}
	}

	for _, sql := range []string{insSQL, updSQL, delSQL} {
		if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
			t.Errorf("translated SQL unparseable in CDW dialect: %v\n%s", err, sql)
		}
	}
	// Independent ranges: re-rendering one half must not disturb another.
	ins2, _ := sd.Insert.SQL(7, 9)
	if !strings.Contains(ins2, "BETWEEN 7 AND 9") {
		t.Errorf("insert range not rebound: %s", ins2)
	}
	del2, _ := sd.Delete.SQL(3, 4)
	if !strings.Contains(del2, "BETWEEN 3 AND 4") {
		t.Errorf("delete range not rebound: %s", del2)
	}
}

func TestTranslateStreamDMLErrors(t *testing.T) {
	tr, delStage := streamTranslator()
	if _, err := tr.TranslateStreamDML("DELETE FROM PROD.CUSTOMER WHERE CUST_ID = :CUST_ID", delStage, customerCols, []string{"CUST_ID"}); err == nil {
		t.Error("non-INSERT apply DML accepted")
	}
	if _, err := tr.TranslateStreamDML(streamApplySQL, delStage, customerCols, nil); err == nil {
		t.Error("missing key columns accepted")
	}
	// Key column not fed by the insert.
	if _, err := tr.TranslateStreamDML(
		"insert into PROD.CUSTOMER (CUST_NAME) values (trim(:CUST_NAME))",
		delStage, customerCols, []string{"CUST_ID"}); err == nil {
		t.Error("insert not feeding the key column accepted")
	}
	bare := &Translator{}
	if _, err := bare.TranslateStreamDML(streamApplySQL, delStage, customerCols, []string{"CUST_ID"}); err == nil {
		t.Error("missing staging context accepted")
	}
}

// TestStreamDMLExecutesOnCDW runs the translated triple against the real CDW
// engine: stage one micro-batch of collapsed images and assert the
// delete/update/insert halves land the expected target state, then re-apply
// the same range and assert idempotence (the checkpoint-resume contract).
func TestStreamDMLExecutesOnCDW(t *testing.T) {
	e := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	mustExecSQL := func(sql string) {
		t.Helper()
		if _, err := e.ExecSQL(sql); err != nil {
			t.Fatalf("ExecSQL(%q): %v", sql, err)
		}
	}
	mustExecSQL(`CREATE TABLE PROD.CUSTOMER (
		CUST_ID VARCHAR(5) NOT NULL,
		CUST_NAME VARCHAR(50),
		JOIN_DATE DATE,
		PRIMARY KEY (CUST_ID))`)
	mustExecSQL(`INSERT INTO PROD.CUSTOMER VALUES
		('100', 'Old', '2020-01-01'),
		('200', 'Gone', '2020-01-02')`)

	tr, delStage := streamTranslator()
	upsDDL, err := StagingDDL(tr.Stage, custLayout())
	if err != nil {
		t.Fatal(err)
	}
	delDDL, err := StagingDDL(delStage, custLayout())
	if err != nil {
		t.Fatal(err)
	}
	mustExecSQL(upsDDL)
	mustExecSQL(delDDL)
	// Collapsed batch covering seqs 1..3: update key 100, insert key 300,
	// delete key 200.
	mustExecSQL(`INSERT INTO etl_stage.ups1 VALUES
		(1, '100', 'New', '2024-05-01'),
		(3, '300', 'Fresh', '2024-05-02')`)
	mustExecSQL(`INSERT INTO etl_stage.del1 VALUES
		(2, '200', 'Gone', '2020-01-02')`)

	sd, err := tr.TranslateStreamDML(streamApplySQL, delStage, customerCols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	applyOnce := func() {
		t.Helper()
		for _, rs := range []*RangeStmt{sd.Delete, sd.Update, sd.Insert} {
			sql, err := rs.SQL(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			mustExecSQL(sql)
		}
	}
	check := func() {
		t.Helper()
		res, err := e.ExecSQL("SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("got %d rows, want 2", len(res.Rows))
		}
		if res.Rows[0][0].S != "100" || res.Rows[0][1].S != "New" {
			t.Errorf("row0 = %v", res.Rows[0])
		}
		if res.Rows[1][0].S != "300" || res.Rows[1][1].S != "Fresh" {
			t.Errorf("row1 = %v", res.Rows[1])
		}
	}
	applyOnce()
	check()
	// Replay the same staged range: state must not change (no double-apply).
	applyOnce()
	check()
}

func TestCheckpointTableDDL(t *testing.T) {
	ddl, err := CheckpointTableDDL(sqlparse.TableName{Schema: "etl_stage", Name: "stream_checkpoints"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"IF NOT EXISTS", "etl_stage.stream_checkpoints", "STREAM_NAME", "WATERMARK"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("checkpoint DDL missing %q: %s", want, ddl)
		}
	}
	// It must execute on the engine, twice (IF NOT EXISTS).
	e := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	for i := 0; i < 2; i++ {
		if _, err := e.ExecSQL(ddl); err != nil {
			t.Fatalf("checkpoint DDL exec %d: %v", i, err)
		}
	}
}

// TestTranslateStreamDMLEdgeCases covers the range and identifier corners
// the replay and error-handling paths depend on: an empty run (hi < lo, the
// shape a fully-replayed batch re-applies), a single-row range (the error
// handler's bisection floor), an all-column primary key (nothing left to
// update), and a target table whose name needs dialect quoting.
func TestTranslateStreamDMLEdgeCases(t *testing.T) {
	tr, delStage := streamTranslator()
	sd, err := tr.TranslateStreamDML(streamApplySQL, delStage, customerCols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}

	// Empty run: renders legal SQL whose range matches nothing.
	for _, rs := range []*RangeStmt{sd.Delete, sd.Update, sd.Insert} {
		sql, err := rs.SQL(5, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sql, "BETWEEN 5 AND 4") {
			t.Errorf("empty run not rendered: %s", sql)
		}
		if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
			t.Errorf("empty-run SQL unparseable: %v\n%s", err, sql)
		}
	}

	// Single-row range: the bisection floor of sub-range re-application.
	sql, err := sd.Insert.SQL(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "BETWEEN 7 AND 7") {
		t.Errorf("single-row range not rendered: %s", sql)
	}

	// All columns in the key: there is nothing to SET, so Update is nil and
	// the triple degrades to guarded Insert + Delete.
	sdAll, err := tr.TranslateStreamDML(streamApplySQL, delStage, customerCols, customerCols)
	if err != nil {
		t.Fatal(err)
	}
	if sdAll.Update != nil {
		u, _ := sdAll.Update.SQL(1, 1)
		t.Errorf("all-column key still builds an update:\n%s", u)
	}
	if sdAll.Insert == nil || sdAll.Delete == nil {
		t.Error("all-column key lost the insert or delete half")
	}

	// A target whose name is a reserved word survives translation and prints
	// quoted in the CDW dialect.
	sdQ, err := tr.TranslateStreamDML(`insert into PROD."ORDER" values (
		trim(:CUST_ID), trim(:CUST_NAME),
		cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`,
		delStage, customerCols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range []*RangeStmt{sdQ.Delete, sdQ.Update, sdQ.Insert} {
		sql, err := rs.SQL(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sql, `PROD."ORDER"`) {
			t.Errorf("quoted target lost its quoting:\n%s", sql)
		}
		if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
			t.Errorf("quoted-target SQL unparseable: %v\n%s", err, sql)
		}
	}
}

// TestStreamDMLMaxLengthKeys stages key values at the layout's full declared
// width and applies the triple on the real engine: padding or truncation
// anywhere in the staging/apply chain would break the key match.
func TestStreamDMLMaxLengthKeys(t *testing.T) {
	e := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	mustExecSQL := func(sql string) {
		t.Helper()
		if _, err := e.ExecSQL(sql); err != nil {
			t.Fatalf("ExecSQL(%q): %v", sql, err)
		}
	}
	mustExecSQL(`CREATE TABLE PROD.CUSTOMER (
		CUST_ID VARCHAR(5) NOT NULL,
		CUST_NAME VARCHAR(50),
		JOIN_DATE DATE,
		PRIMARY KEY (CUST_ID))`)
	mustExecSQL(`INSERT INTO PROD.CUSTOMER VALUES ('AAAAA', 'Old', '2020-01-01'),
		('BBBBB', 'Stays', '2020-01-02')`)

	tr, delStage := streamTranslator()
	for _, stage := range []sqlparse.TableName{tr.Stage, delStage} {
		ddl, err := StagingDDL(stage, custLayout())
		if err != nil {
			t.Fatal(err)
		}
		mustExecSQL(ddl)
	}
	// Both images carry 5-character keys — the declared VARCHAR(5) maximum.
	mustExecSQL(`INSERT INTO etl_stage.ups1 VALUES (1, 'AAAAA', 'New', '2024-05-01')`)
	mustExecSQL(`INSERT INTO etl_stage.del1 VALUES (2, 'BBBBB', 'Stays', '2020-01-02')`)

	sd, err := tr.TranslateStreamDML(streamApplySQL, delStage, customerCols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range []*RangeStmt{sd.Delete, sd.Update, sd.Insert} {
		sql, err := rs.SQL(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		mustExecSQL(sql)
	}
	res, err := e.ExecSQL("SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "AAAAA" || res.Rows[0][1].S != "New" {
		t.Errorf("max-length key apply went wrong: %v", res.Rows)
	}
}

// TestTranslateNetEffectShape pins the net-effect statements' shapes: the
// read's per-image columns, the DELETE over the base stage filtered on the
// image class (a DELETE over the last-image derived table would fall to the
// engine's nested loop), and UPDATE/INSERT from each key's last image.
func TestTranslateNetEffectShape(t *testing.T) {
	tr, _ := streamTranslator()
	cols := []TargetColumn{
		{Name: "CUST_ID", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{5}}, NotNull: true},
		{Name: "CUST_NAME", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{50}}},
		{Name: "JOIN_DATE", Type: sqlparse.TypeName{Name: "DATE"}},
		{Name: "TIER", Type: sqlparse.TypeName{Name: "INTEGER"}, NotNull: true, Default: true},
	}
	ne, err := tr.TranslateNetEffect(streamApplySQL, cols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	if ne.Keys != 1 || len(ne.Checks) != 3 || !ne.Checks[0].Key || !ne.Checks[0].NotNull || ne.Checks[1].NotNull || ne.InsertNull {
		t.Errorf("read layout: keys %d, checks %+v, insert null %v", ne.Keys, ne.Checks, ne.InsertNull)
	}
	last := "JOIN (SELECT MAX(s.__seq) AS m FROM etl_stage.ups1 s WHERE s.__seq BETWEEN 1 AND 50 GROUP BY TRIM(s.CUST_ID)) g ON s.__seq = g.m"
	for _, tc := range []struct {
		rs   *RangeStmt
		want []string
	}{
		{ne.Read, []string{
			"SELECT s.__seq, s.__op, t.CUST_ID IS NOT NULL, TRIM(s.CUST_ID), CASE WHEN s.__op = 'U' THEN CAST(TRIM(s.CUST_ID) AS VARCHAR(5)) IS NULL END",
			"CAST(TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') AS DATE) IS NULL",
			"FROM etl_stage.ups1 s LEFT JOIN PROD.CUSTOMER t ON t.CUST_ID = TRIM(s.CUST_ID) WHERE s.__seq BETWEEN 1 AND 50",
		}},
		{ne.Delete, []string{
			"DELETE FROM PROD.CUSTOMER t USING etl_stage.ups1 s WHERE t.CUST_ID = TRIM(s.CUST_ID) AND s.__op = 'D' AND s.__seq BETWEEN 1 AND 50",
		}},
		{ne.Update, []string{
			"UPDATE PROD.CUSTOMER t SET CUST_NAME = TRIM(s.CUST_NAME), JOIN_DATE = TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') FROM etl_stage.ups1 s " + last,
			"WHERE t.CUST_ID = TRIM(s.CUST_ID) AND s.__op = 'U' AND s.__seq BETWEEN 1 AND 50",
		}},
		{ne.Insert, []string{
			"INSERT INTO PROD.CUSTOMER SELECT TRIM(s.CUST_ID), TRIM(s.CUST_NAME), TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') FROM etl_stage.ups1 s " + last,
			"WHERE s.__seq BETWEEN 1 AND 50 AND s.__op = 'U' AND NOT EXISTS (SELECT 1 FROM PROD.CUSTOMER t WHERE t.CUST_ID = TRIM(s.CUST_ID))",
		}},
	} {
		sql, err := tc.rs.SQL(1, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range tc.want {
			if !strings.Contains(sql, want) {
				t.Errorf("missing %q in\n%s", want, sql)
			}
		}
		if _, err := sqlparse.Parse(sql, sqlparse.DialectCDW); err != nil {
			t.Errorf("unparseable in CDW dialect: %v\n%s", err, sql)
		}
	}

	// An unfed NOT NULL column without a default fails every insert.
	cols[3].Default = false
	if ne, err = tr.TranslateNetEffect(streamApplySQL, cols, []string{"CUST_ID"}); err != nil || !ne.InsertNull {
		t.Errorf("unfed NOT NULL column: InsertNull = %v, err %v", ne != nil && ne.InsertNull, err)
	}
	if _, err := tr.TranslateNetEffect(streamApplySQL, cols, nil); err == nil {
		t.Error("net effect without a key translated")
	}
}
