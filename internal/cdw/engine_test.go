package cdw

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/cloudstore"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(cloudstore.NewMemStore(), Options{
		Now: func() time.Time { return time.Date(2023, 3, 28, 12, 0, 0, 0, time.UTC) },
	})
	return e
}

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", sql, err)
	}
	return res
}

func q(t *testing.T, e *Engine, sql string) [][]Datum {
	t.Helper()
	return mustExec(t, e, sql).Rows
}

func seedCustomers(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE prod.customer (
		cust_id VARCHAR(5) NOT NULL,
		cust_name VARCHAR(50),
		join_date DATE,
		PRIMARY KEY (cust_id))`)
	mustExec(t, e, `INSERT INTO prod.customer VALUES
		('123', 'Smith', '2012-01-01'),
		('157', 'Jones', '2012-12-01'),
		('200', NULL, '2020-06-15')`)
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	rows := q(t, e, "SELECT cust_id, cust_name FROM prod.customer ORDER BY cust_id")
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0].S != "123" || rows[0][1].S != "Smith" {
		t.Errorf("row0 = %v", rows[0])
	}
	if !rows[2][1].IsNull() {
		t.Errorf("expected NULL name, got %v", rows[2][1])
	}
}

func TestCreateTableErrors(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (a INTEGER)")
	if _, err := e.ExecSQL("CREATE TABLE t (a INTEGER)"); err == nil {
		t.Error("duplicate create accepted")
	}
	mustExec(t, e, "CREATE TABLE IF NOT EXISTS t (a INTEGER)")
	if _, err := e.ExecSQL("CREATE TABLE u (a INTEGER, PRIMARY KEY (nope))"); err == nil {
		t.Error("bad PK column accepted")
	}
	if _, err := e.ExecSQL("CREATE TABLE v (a FOO)"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := e.ExecSQL("SELECT * FROM missing"); err == nil {
		t.Error("missing table accepted")
	}
	mustExec(t, e, "DROP TABLE t")
	if _, err := e.ExecSQL("DROP TABLE t"); err == nil {
		t.Error("double drop accepted")
	}
	mustExec(t, e, "DROP TABLE IF EXISTS t")
}

func TestInsertCoercionsAndDefaults(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE t (
		a BIGINT, b DECIMAL(10,2), c DATE, d VARCHAR(3), f DOUBLE DEFAULT 1.5)`)
	mustExec(t, e, "INSERT INTO t (a, b, c, d) VALUES ('42', '19.999', '2020-02-29', 'xyz')")
	rows := q(t, e, "SELECT a, b, c, d, f FROM t")
	if rows[0][0].I != 42 {
		t.Errorf("a = %v", rows[0][0])
	}
	if rows[0][1].Kind != KDecimal || rows[0][1].I != 2000 { // rounded to scale 2
		t.Errorf("b = %+v", rows[0][1])
	}
	if rows[0][2].Render() != "2020-02-29" {
		t.Errorf("c = %v", rows[0][2].Render())
	}
	if rows[0][4].F != 1.5 {
		t.Errorf("default f = %v", rows[0][4])
	}
	// errors
	for _, bad := range []string{
		"INSERT INTO t (a) VALUES ('notanum')",
		"INSERT INTO t (c) VALUES ('2020-02-30')",
		"INSERT INTO t (d) VALUES ('toolong')",
		"INSERT INTO t (b) VALUES ('999999999999')",
		"INSERT INTO t (a, b) VALUES (1)",
		"INSERT INTO t (nope) VALUES (1)",
	} {
		if _, err := e.ExecSQL(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestNotNullEnforced(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (a INTEGER NOT NULL, b INTEGER)")
	if _, err := e.ExecSQL("INSERT INTO t (b) VALUES (1)"); err == nil {
		t.Error("missing NOT NULL column accepted")
	}
	if _, err := e.ExecSQL("INSERT INTO t VALUES (NULL, 1)"); err == nil {
		t.Error("explicit NULL accepted")
	}
	ee := AsError(func() error { _, err := e.ExecSQL("INSERT INTO t VALUES (NULL, 1)"); return err }())
	if ee.Code != CodeNotNull {
		t.Errorf("code = %d", ee.Code)
	}
}

func TestUniquenessNotEnforcedByDefault(t *testing.T) {
	// The headline CDW property: PRIMARY KEY is declared but NOT enforced.
	e := newTestEngine(t)
	seedCustomers(t, e)
	mustExec(t, e, "INSERT INTO prod.customer VALUES ('123', 'Dup', '2013-01-01')")
	rows := q(t, e, "SELECT count(*) FROM prod.customer WHERE cust_id = '123'")
	if rows[0][0].I != 2 {
		t.Errorf("duplicate not stored: count = %v", rows[0][0])
	}
}

func TestUniquenessEnforcedInEDWMode(t *testing.T) {
	e := NewEngine(nil, Options{EnforceUniqueness: true, RowDetail: true})
	if _, err := e.ExecSQL("CREATE TABLE t (k INTEGER, v VARCHAR(5), PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecSQL("INSERT INTO t VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	_, err := e.ExecSQL("INSERT INTO t VALUES (1, 'b')")
	ee := AsError(err)
	if ee == nil || ee.Code != CodeUniqueness {
		t.Fatalf("want uniqueness error, got %v", err)
	}
	// intra-batch duplicates too
	_, err = e.ExecSQL("INSERT INTO t VALUES (2, 'a'), (2, 'b')")
	if AsError(err).Code != CodeUniqueness {
		t.Errorf("intra-batch dup: %v", err)
	}
	if AsError(err).Row != 2 {
		t.Errorf("row detail = %d, want 2", AsError(err).Row)
	}
	// NULL keys do not collide
	if _, err := e.ExecSQL("CREATE TABLE u (k INTEGER, UNIQUE (k))"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecSQL("INSERT INTO u VALUES (NULL), (NULL)"); err != nil {
		t.Errorf("NULL unique keys rejected: %v", err)
	}
}

func TestRowDetailScrubbedInCDWMode(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (c DATE)")
	_, err := e.ExecSQL("INSERT INTO t VALUES ('2020-01-01'), ('bogus')")
	ee := AsError(err)
	if ee == nil {
		t.Fatal("bad date accepted")
	}
	if ee.Row != 0 {
		t.Errorf("CDW mode leaked row detail: %d", ee.Row)
	}
}

func TestInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	mustExec(t, e, "CREATE TABLE names (n VARCHAR(50))")
	res := mustExec(t, e, "INSERT INTO names SELECT cust_name FROM prod.customer WHERE cust_name IS NOT NULL")
	if res.Activity != 2 {
		t.Errorf("activity = %d", res.Activity)
	}
}

func TestInsertAtomicity(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (c DATE)")
	mustExec(t, e, "INSERT INTO t VALUES ('2020-01-01')")
	// second row fails -> no partial insert
	if _, err := e.ExecSQL("INSERT INTO t VALUES ('2021-01-01'), ('xxxx')"); err == nil {
		t.Fatal("bad insert accepted")
	}
	rows := q(t, e, "SELECT count(*) FROM t")
	if rows[0][0].I != 1 {
		t.Errorf("partial insert leaked: count = %v", rows[0][0])
	}
}

func TestUpdateBasic(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	res := mustExec(t, e, "UPDATE prod.customer SET cust_name = 'Anon' WHERE cust_name IS NULL")
	if res.Activity != 1 {
		t.Errorf("updated %d", res.Activity)
	}
	rows := q(t, e, "SELECT cust_name FROM prod.customer WHERE cust_id = '200'")
	if rows[0][0].S != "Anon" {
		t.Errorf("update missed: %v", rows[0][0])
	}
}

func TestUpdateFromSource(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	mustExec(t, e, "CREATE TABLE stage (k VARCHAR(5), n VARCHAR(50))")
	mustExec(t, e, "INSERT INTO stage VALUES ('123', 'Smith2'), ('157', 'Jones2')")
	res := mustExec(t, e, "UPDATE prod.customer c SET cust_name = s.n FROM stage s WHERE c.cust_id = s.k")
	if res.Activity != 2 {
		t.Errorf("updated %d", res.Activity)
	}
	rows := q(t, e, "SELECT cust_name FROM prod.customer ORDER BY cust_id")
	if rows[0][0].S != "Smith2" || rows[1][0].S != "Jones2" {
		t.Errorf("rows = %v", rows)
	}
}

func TestDelete(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	res := mustExec(t, e, "DELETE FROM prod.customer WHERE join_date < '2015-01-01'")
	if res.Activity != 2 {
		t.Errorf("deleted %d", res.Activity)
	}
	if n := q(t, e, "SELECT count(*) FROM prod.customer")[0][0].I; n != 1 {
		t.Errorf("remaining %d", n)
	}
}

func TestDeleteUsing(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	mustExec(t, e, "CREATE TABLE kill (k VARCHAR(5))")
	mustExec(t, e, "INSERT INTO kill VALUES ('123'), ('200')")
	res := mustExec(t, e, "DELETE FROM prod.customer c USING kill k WHERE c.cust_id = k.k")
	if res.Activity != 2 {
		t.Errorf("deleted %d", res.Activity)
	}
}

// TestJoinedDMLAllocBound pins that the stream's statements — UPDATE ...
// FROM, DELETE ... USING and the NOT EXISTS-guarded INSERT ... SELECT — cost
// what the staged batch costs, not what the target holds: the stream applies
// them against a growing target every micro-batch. For the same 50-row
// batch, doubling the target at most doubles the allocations (linear in the
// table, not in pairs), and they stay far below one per target x source
// pair. Every statement leaves the tables as it found them.
func TestJoinedDMLAllocBound(t *testing.T) {
	const batch = 50
	stmts := []struct {
		sql      string
		activity int64
	}{
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.k = TRIM(s.k) AND s.__seq BETWEEN 1 AND 50", 0},
		{"DELETE FROM tgt t USING src s WHERE t.k = TRIM(s.k) AND s.__seq BETWEEN 1 AND 50", 0},
		{"UPDATE tgt t SET v = h.v FROM hit h WHERE t.k = TRIM(h.k) AND h.__seq BETWEEN 1 AND 50", batch},
		{"INSERT INTO tgt SELECT TRIM(h.k), h.v FROM hit h WHERE h.__seq BETWEEN 1 AND 50 AND NOT EXISTS (SELECT 1 FROM tgt t WHERE t.k = TRIM(h.k))", 0},
	}
	allocs := func(targetRows int, sql string, activity int64) float64 {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE tgt (k VARCHAR(8) NOT NULL, v VARCHAR(8), PRIMARY KEY (k))")
		mustExec(t, e, "CREATE TABLE src (__seq BIGINT, k VARCHAR(8), v VARCHAR(8))")
		mustExec(t, e, "CREATE TABLE hit (__seq BIGINT, k VARCHAR(8), v VARCHAR(8))")
		var tv, sv, hv []string
		for i := 0; i < targetRows; i++ {
			tv = append(tv, fmt.Sprintf("('t%d', 'a')", i))
		}
		for i := 0; i < batch; i++ {
			sv = append(sv, fmt.Sprintf("(%d, ' s%d', 'b')", i+1, i)) // matches no target key
			hv = append(hv, fmt.Sprintf("(%d, ' t%d', 'a')", i+1, i)) // matches, rewriting the same value
		}
		mustExec(t, e, "INSERT INTO tgt VALUES "+strings.Join(tv, ", "))
		mustExec(t, e, "INSERT INTO src VALUES "+strings.Join(sv, ", "))
		mustExec(t, e, "INSERT INTO hit VALUES "+strings.Join(hv, ", "))
		return testing.AllocsPerRun(3, func() {
			if res := mustExec(t, e, sql); res.Activity != activity {
				t.Fatalf("%s touched %d rows, want %d", sql, res.Activity, activity)
			}
		})
	}
	for _, s := range stmts {
		small, large := allocs(1000, s.sql, s.activity), allocs(2000, s.sql, s.activity)
		t.Logf("%s: %.0f allocs at 1000 target rows, %.0f at 2000", s.sql, small, large)
		if large > 2.2*small {
			t.Errorf("%s: %.0f allocs at 2000 target rows vs %.0f at 1000, want <= 2.2x", s.sql, large, small)
		}
		if pairs := float64(batch * 2000); large >= pairs/4 {
			t.Errorf("%s: %.0f allocs for %.0f target x source pairs, want < %.0f", s.sql, large, pairs, pairs/4)
		}
	}
}

func TestTruncate(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	res := mustExec(t, e, "TRUNCATE TABLE prod.customer")
	if res.Activity != 3 {
		t.Errorf("truncated %d", res.Activity)
	}
	if n := q(t, e, "SELECT count(*) FROM prod.customer")[0][0].I; n != 0 {
		t.Errorf("rows remain: %d", n)
	}
}

func TestSelectExpressions(t *testing.T) {
	e := newTestEngine(t)
	rows := q(t, e, "SELECT 1 + 2 * 3, 'a' || 'b', trim('  x  '), upper('hi'), 7 / 2, 7.0 / 2, 2 ** 10")
	wants := []any{int64(7), "ab", "x", "HI", int64(3), 3.5, float64(1024)}
	for i, w := range wants {
		d := rows[0][i]
		switch want := w.(type) {
		case int64:
			if d.Kind != KInt || d.I != want {
				t.Errorf("col %d = %+v, want %d", i, d, want)
			}
		case string:
			if d.S != want {
				t.Errorf("col %d = %+v, want %q", i, d, want)
			}
		case float64:
			if d.Kind != KFloat || d.F != want {
				t.Errorf("col %d = %+v, want %v", i, d, want)
			}
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := newTestEngine(t)
	rows := q(t, e, `SELECT NULL AND FALSE, NULL AND TRUE, NULL OR TRUE, NULL OR FALSE,
		NULL = NULL, 1 = NULL, coalesce(NULL, 5), nullif(3, 3), nullif(3, 4)`)
	r := rows[0]
	if r[0].IsNull() || r[0].Bool { // NULL AND FALSE = FALSE
		t.Errorf("NULL AND FALSE = %+v", r[0])
	}
	if !r[1].IsNull() {
		t.Errorf("NULL AND TRUE = %+v", r[1])
	}
	if r[2].IsNull() || !r[2].Bool {
		t.Errorf("NULL OR TRUE = %+v", r[2])
	}
	if !r[3].IsNull() {
		t.Errorf("NULL OR FALSE = %+v", r[3])
	}
	if !r[4].IsNull() || !r[5].IsNull() {
		t.Errorf("NULL comparisons: %+v %+v", r[4], r[5])
	}
	if r[6].I != 5 {
		t.Errorf("coalesce = %+v", r[6])
	}
	if !r[7].IsNull() || r[8].I != 3 {
		t.Errorf("nullif: %+v %+v", r[7], r[8])
	}
}

func TestWhereNullFiltersOut(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	// cust_name = NULL is NULL -> excluded, not an error
	rows := q(t, e, "SELECT * FROM prod.customer WHERE cust_name = NULL")
	if len(rows) != 0 {
		t.Errorf("NULL predicate returned %d rows", len(rows))
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE sales (region VARCHAR(2), amt DECIMAL(10,2))")
	mustExec(t, e, `INSERT INTO sales VALUES
		('N', '10.00'), ('N', '20.00'), ('S', '5.50'), ('S', NULL), ('E', '1.00')`)
	rows := q(t, e, `SELECT region, count(*) AS c, count(amt), sum(amt), min(amt), max(amt), avg(amt)
		FROM sales GROUP BY region ORDER BY region`)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// E: 1 row
	if rows[0][0].S != "E" || rows[0][1].I != 1 {
		t.Errorf("E row: %v", rows[0])
	}
	// N: sum 30.00
	if rows[1][3].asFloat() != 30.0 {
		t.Errorf("N sum: %v", rows[1][3])
	}
	// S: count(*)=2, count(amt)=1
	if rows[2][1].I != 2 || rows[2][2].I != 1 {
		t.Errorf("S counts: %v", rows[2])
	}
	if rows[2][6].F != 5.5 {
		t.Errorf("S avg: %v", rows[2][6])
	}
}

func TestHavingAndDistinct(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (k INTEGER)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (1), (2), (3), (3), (3)")
	rows := q(t, e, "SELECT k FROM t GROUP BY k HAVING count(*) > 1 ORDER BY k")
	if len(rows) != 2 || rows[0][0].I != 1 || rows[1][0].I != 3 {
		t.Errorf("having rows: %v", rows)
	}
	rows = q(t, e, "SELECT DISTINCT k FROM t ORDER BY k DESC")
	if len(rows) != 3 || rows[0][0].I != 3 {
		t.Errorf("distinct: %v", rows)
	}
	rows = q(t, e, "SELECT count(DISTINCT k) FROM t")
	if rows[0][0].I != 3 {
		t.Errorf("count distinct: %v", rows[0][0])
	}
}

func TestGlobalAggregateOnEmptyTable(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (k INTEGER)")
	rows := q(t, e, "SELECT count(*), sum(k), max(k) FROM t")
	if rows[0][0].I != 0 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Errorf("empty aggregates: %v", rows[0])
	}
}

func TestJoins(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE a (k INTEGER, v VARCHAR(5))")
	mustExec(t, e, "CREATE TABLE b (k INTEGER, w VARCHAR(5))")
	mustExec(t, e, "INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')")
	mustExec(t, e, "INSERT INTO b VALUES (2, 'b2'), (3, 'b3'), (3, 'b3x')")
	rows := q(t, e, "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k ORDER BY a.v, b.w")
	if len(rows) != 3 {
		t.Fatalf("inner join rows = %d", len(rows))
	}
	rows = q(t, e, "SELECT a.v, b.w FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.v, b.w")
	if len(rows) != 4 {
		t.Fatalf("left join rows = %d", len(rows))
	}
	if !rows[0][1].IsNull() { // a1 has no match; sorts first since NULL smallest
		t.Errorf("left join null side: %v", rows[0])
	}
	rows = q(t, e, "SELECT count(*) FROM a CROSS JOIN b")
	if rows[0][0].I != 9 {
		t.Errorf("cross join count = %v", rows[0][0])
	}
	rows = q(t, e, "SELECT count(*) FROM a, b WHERE a.k = b.k")
	if rows[0][0].I != 3 {
		t.Errorf("comma join count = %v", rows[0][0])
	}
}

func TestSubqueries(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE a (k INTEGER, v INTEGER)")
	mustExec(t, e, "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
	rows := q(t, e, "SELECT k FROM a WHERE v = (SELECT max(v) FROM a)")
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Errorf("scalar subquery: %v", rows)
	}
	rows = q(t, e, "SELECT k FROM a WHERE k IN (SELECT k FROM a WHERE v > 15) ORDER BY k")
	if len(rows) != 2 {
		t.Errorf("IN subquery: %v", rows)
	}
	// correlated EXISTS
	mustExec(t, e, "CREATE TABLE b (k INTEGER)")
	mustExec(t, e, "INSERT INTO b VALUES (2)")
	rows = q(t, e, "SELECT k FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.k = a.k)")
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("correlated exists: %v", rows)
	}
	// derived table
	rows = q(t, e, "SELECT d.m FROM (SELECT max(v) AS m FROM a) d")
	if len(rows) != 1 || rows[0][0].I != 30 {
		t.Errorf("derived table: %v", rows)
	}
	// scalar subquery with >1 row errors
	if _, err := e.ExecSQL("SELECT (SELECT k FROM a) FROM a"); err == nil {
		t.Error("multi-row scalar subquery accepted")
	}
}

func TestOrderByLimitNulls(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (k INTEGER)")
	mustExec(t, e, "INSERT INTO t VALUES (3), (NULL), (1), (2)")
	rows := q(t, e, "SELECT k FROM t ORDER BY k LIMIT 2")
	if !rows[0][0].IsNull() || rows[1][0].I != 1 {
		t.Errorf("nulls-first ordering: %v", rows)
	}
	rows = q(t, e, "SELECT k FROM t ORDER BY k DESC LIMIT 1")
	if rows[0][0].I != 3 {
		t.Errorf("desc: %v", rows)
	}
}

func TestLikeAndCase(t *testing.T) {
	e := newTestEngine(t)
	rows := q(t, e, `SELECT 'hello' LIKE 'he%', 'hello' LIKE 'h_llo', 'hello' NOT LIKE 'x%',
		CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END, CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END`)
	r := rows[0]
	if !r[0].Bool || !r[1].Bool || !r[2].Bool {
		t.Errorf("like: %v", r[:3])
	}
	if r[3].S != "b" || r[4].S != "two" {
		t.Errorf("case: %v %v", r[3], r[4])
	}
}

func TestDateFunctions(t *testing.T) {
	e := newTestEngine(t)
	rows := q(t, e, `SELECT to_date('2012-01-31', 'YYYY-MM-DD'),
		to_char(to_date('2012-01-31', 'YYYY-MM-DD'), 'DD/MM/YYYY'),
		to_date('2012-01-31', 'YYYY-MM-DD') + 1,
		add_months(to_date('2020-01-31', 'YYYY-MM-DD'), 1),
		year(to_date('2012-06-15', 'YYYY-MM-DD'))`)
	r := rows[0]
	if r[0].Render() != "2012-01-31" {
		t.Errorf("to_date: %v", r[0].Render())
	}
	if r[1].S != "31/01/2012" {
		t.Errorf("to_char: %v", r[1].S)
	}
	if r[2].Render() != "2012-02-01" {
		t.Errorf("date+1: %v", r[2].Render())
	}
	if r[3].Render() != "2020-03-02" { // Go AddDate normalization of Jan 31 + 1 month
		t.Errorf("add_months: %v", r[3].Render())
	}
	if r[4].I != 2012 {
		t.Errorf("year: %v", r[4])
	}
	if _, err := e.ExecSQL("SELECT to_date('xxxx', 'YYYY-MM-DD')"); err == nil {
		t.Error("bad to_date accepted")
	}
	if AsError(func() error { _, err := e.ExecSQL("SELECT to_date('2023-02-30', 'YYYY-MM-DD')"); return err }()).Code != CodeDateConv {
		t.Error("invalid calendar date should raise CodeDateConv")
	}
}

func TestCurrentDateUsesClock(t *testing.T) {
	e := newTestEngine(t)
	rows := q(t, e, "SELECT current_date()")
	if rows[0][0].Render() != "2023-03-28" {
		t.Errorf("current_date = %v", rows[0][0].Render())
	}
}

func TestDivisionByZero(t *testing.T) {
	e := newTestEngine(t)
	for _, src := range []string{"SELECT 1 / 0", "SELECT 1.0 / 0", "SELECT 1 % 0"} {
		_, err := e.ExecSQL(src)
		if AsError(err) == nil || AsError(err).Code != CodeDivByZero {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	e := newTestEngine(t)
	rows := q(t, e, `SELECT substring('hello world', 7), substr('hello', 2, 3),
		replace('a-b-c', '-', '+'), lpad('5', 3, '0'), rpad('ab', 5, 'xy'),
		length('abc'), position('lo', 'l')`)
	r := rows[0]
	wants := []string{"world", "ell", "a+b+c", "005", "abxyx"}
	for i, w := range wants {
		if r[i].S != w {
			t.Errorf("col %d = %q, want %q", i, r[i].S, w)
		}
	}
	if r[5].I != 3 || r[6].I != 1 {
		t.Errorf("length/position: %v %v", r[5], r[6])
	}
}

func TestCopyFromStore(t *testing.T) {
	store := cloudstore.NewMemStore()
	e := NewEngine(store, Options{})
	mustExec(t, e, "CREATE TABLE stage (seq BIGINT, id VARCHAR(5), name VARCHAR(50))")
	put := func(key, body string) {
		if err := store.Put(key, strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	put("job1/part-000.csv", "1,123,Smith\n2,456,\\N\n")
	put("job1/part-001.csv", "3,789,Brown\n")
	put("other/x.csv", "9,zzz,Ignored\n")
	res := mustExec(t, e, "COPY INTO stage FROM 'store://job1/'")
	if res.Activity != 3 {
		t.Fatalf("copied %d", res.Activity)
	}
	rows := q(t, e, "SELECT seq, id, name FROM stage ORDER BY seq")
	if rows[0][1].S != "123" || !rows[1][2].IsNull() || rows[2][1].S != "789" {
		t.Errorf("rows = %v", rows)
	}
}

func TestCopyFilesManifest(t *testing.T) {
	store := cloudstore.NewMemStore()
	e := NewEngine(store, Options{})
	mustExec(t, e, "CREATE TABLE stage (seq BIGINT, v VARCHAR(5))")
	put := func(key, body string) {
		if err := store.Put(key, strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	put("job1/a.csv", "1,aa\n2,bb\n")
	put("job1/b.csv", "3,cc\n")
	put("job1/straggler.csv", "4,dd\n")
	// Manifest COPY ingests exactly the named files, not the whole prefix.
	res := mustExec(t, e, "COPY INTO stage FROM 'store://job1/' FILES ('a.csv', 'b.csv')")
	if res.Activity != 3 {
		t.Fatalf("copied %d, want 3", res.Activity)
	}
	if n := q(t, e, "SELECT count(*) FROM stage")[0][0].I; n != 3 {
		t.Errorf("staged %d rows, straggler leaked in", n)
	}
	// A missing manifest entry fails the whole statement atomically.
	if _, err := e.ExecSQL("COPY INTO stage FROM 'store://job1/' FILES ('nope.csv')"); err == nil {
		t.Error("missing manifest file accepted")
	}
	if n := q(t, e, "SELECT count(*) FROM stage")[0][0].I; n != 3 {
		t.Errorf("failed manifest COPY changed the table: %d rows", n)
	}
}

func TestCopyManifestMixedCompression(t *testing.T) {
	// A manifest may mix plain and gzipped objects; the .gz suffix selects
	// decompression per file, without the statement-level gzip option.
	store := cloudstore.NewMemStore()
	e := NewEngine(store, Options{})
	mustExec(t, e, "CREATE TABLE stage (a BIGINT)")
	store.Put("m/plain.csv", strings.NewReader("1\n"))
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("2\n3\n"))
	zw.Close()
	store.Put("m/zipped.csv.gz", bytes.NewReader(buf.Bytes()))
	res := mustExec(t, e, "COPY INTO stage FROM 'store://m/' FILES ('plain.csv', 'zipped.csv.gz')")
	if res.Activity != 3 {
		t.Errorf("copied %d, want 3", res.Activity)
	}
}

func TestCopyIncrementalOrderMatchesMonolithic(t *testing.T) {
	// Ordered incremental manifest COPYs must land the exact physical row
	// order one monolithic ordered COPY of the same objects would — the
	// invariant order-sensitive legacy DML (last image wins) depends on.
	files := map[string]string{
		"a.csv": "5,e\n6,f\n",
		"b.csv": "1,a\n2,b\n",
		"c.csv": "3,c\n9,i\n",
		"d.csv": "4,d\n7,g\n8,h\n",
	}
	load := func(batches [][]string) []string {
		store := cloudstore.NewMemStore()
		e := NewEngine(store, Options{})
		mustExec(t, e, "CREATE TABLE stage (seq BIGINT, v VARCHAR(5))")
		for name, body := range files {
			if err := store.Put("j/"+name, strings.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		}
		for _, manifest := range batches {
			stmt := "COPY INTO stage FROM 'store://j/'"
			if manifest != nil {
				stmt += " FILES ('" + strings.Join(manifest, "', '") + "')"
			}
			stmt += " OPTIONS (order 'seq')"
			mustExec(t, e, stmt)
		}
		// Read back in physical order (no ORDER BY).
		rows := q(t, e, "SELECT seq, v FROM stage")
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%d=%s", r[0].I, r[1].S)
		}
		return out
	}
	mono := load([][]string{nil})
	incr := load([][]string{{"a.csv", "b.csv"}, {"c.csv"}, {"d.csv"}})
	if strings.Join(mono, ",") != strings.Join(incr, ",") {
		t.Errorf("incremental order diverged:\n mono %v\n incr %v", mono, incr)
	}
	if len(mono) != 9 || mono[0] != "1=a" || mono[8] != "9=i" {
		t.Errorf("monolithic order wrong: %v", mono)
	}
}

func TestCopyGzip(t *testing.T) {
	store := cloudstore.NewMemStore()
	e := NewEngine(store, Options{})
	mustExec(t, e, "CREATE TABLE stage (a BIGINT)")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("1\n2\n3\n"))
	zw.Close()
	store.Put("z/part-000.csv.gz", bytes.NewReader(buf.Bytes()))
	res := mustExec(t, e, "COPY INTO stage FROM 'store://z/' OPTIONS (gzip 'true')")
	if res.Activity != 3 {
		t.Errorf("copied %d", res.Activity)
	}
}

func TestCopyErrors(t *testing.T) {
	store := cloudstore.NewMemStore()
	e := NewEngine(store, Options{})
	mustExec(t, e, "CREATE TABLE stage (a BIGINT)")
	store.Put("bad/x.csv", strings.NewReader("1\nnotanumber\n"))
	if _, err := e.ExecSQL("COPY INTO stage FROM 'store://bad/'"); err == nil {
		t.Error("bad CSV value accepted")
	}
	// atomic: nothing loaded
	if n := q(t, e, "SELECT count(*) FROM stage")[0][0].I; n != 0 {
		t.Errorf("partial copy: %d", n)
	}
	store.Put("arity/x.csv", strings.NewReader("1,2\n"))
	if _, err := e.ExecSQL("COPY INTO stage FROM 'store://arity/'"); err == nil {
		t.Error("arity mismatch accepted")
	}
	e2 := NewEngine(nil, Options{})
	e2.ExecSQL("CREATE TABLE stage (a BIGINT)")
	if _, err := e2.ExecSQL("COPY INTO stage FROM 'store://x/'"); err == nil {
		t.Error("COPY with no store accepted")
	}
}

func TestResultColumnMetadata(t *testing.T) {
	e := newTestEngine(t)
	seedCustomers(t, e)
	res := mustExec(t, e, "SELECT cust_id, cust_name AS who, count(*) AS n FROM prod.customer GROUP BY cust_id, cust_name")
	if res.Columns[0].Name != "cust_id" || res.Columns[1].Name != "who" || res.Columns[2].Name != "n" {
		t.Errorf("columns: %+v", res.Columns)
	}
	if res.Columns[0].Type.Kind != KString || res.Columns[0].Type.Length != 5 {
		t.Errorf("declared type lost: %+v", res.Columns[0].Type)
	}
	if res.Columns[2].Type.Kind != KInt {
		t.Errorf("count type: %+v", res.Columns[2].Type)
	}
}

func TestStatementOverheadSimulation(t *testing.T) {
	e := NewEngine(nil, Options{StmtOverhead: 30 * time.Millisecond})
	start := time.Now()
	e.ExecSQL("CREATE TABLE t (a INTEGER)")
	if time.Since(start) < 25*time.Millisecond {
		t.Error("statement overhead not applied")
	}
	if e.StmtCount() != 1 {
		t.Errorf("stmt count %d", e.StmtCount())
	}
}

func TestUnionAll(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE a (k INTEGER, v VARCHAR(5))")
	mustExec(t, e, "CREATE TABLE b (k INTEGER, v VARCHAR(5))")
	mustExec(t, e, "INSERT INTO a VALUES (1, 'a1'), (3, 'a3')")
	mustExec(t, e, "INSERT INTO b VALUES (2, 'b2'), (4, 'b4')")
	rows := q(t, e, "SELECT k, v FROM a UNION ALL SELECT k, v FROM b ORDER BY k")
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if rows[i][0].I != want {
			t.Errorf("row %d: %v", i, rows[i])
		}
	}
	// duplicates are kept (ALL semantics)
	rows = q(t, e, "SELECT k FROM a UNION ALL SELECT k FROM a")
	if len(rows) != 4 {
		t.Errorf("union all dedup happened: %d rows", len(rows))
	}
	// three branches + limit
	rows = q(t, e, "SELECT k FROM a UNION ALL SELECT k FROM b UNION ALL SELECT k FROM a ORDER BY k DESC LIMIT 3")
	if len(rows) != 3 || rows[0][0].I != 4 {
		t.Errorf("3-branch union: %v", rows)
	}
	// derived table over a union
	rows = q(t, e, "SELECT count(*) FROM (SELECT k FROM a UNION ALL SELECT k FROM b) u")
	if rows[0][0].I != 4 {
		t.Errorf("union in subquery: %v", rows)
	}
	// arity mismatch
	if _, err := e.ExecSQL("SELECT k FROM a UNION ALL SELECT k, v FROM b"); err == nil {
		t.Error("arity mismatch accepted")
	}
	// UNION without ALL unsupported
	if _, err := e.ExecSQL("SELECT k FROM a UNION SELECT k FROM b"); err == nil {
		t.Error("bare UNION accepted")
	}
	// interior ORDER BY rejected
	if _, err := e.ExecSQL("SELECT k FROM a ORDER BY k UNION ALL SELECT k FROM b"); err == nil {
		t.Error("interior ORDER BY accepted")
	}
}

func TestOrderByOrdinal(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b VARCHAR(5))")
	mustExec(t, e, "INSERT INTO t VALUES (2, 'x'), (1, 'z'), (3, 'y')")
	rows := q(t, e, "SELECT b, a FROM t ORDER BY 2")
	if rows[0][1].I != 1 || rows[2][1].I != 3 {
		t.Errorf("ordinal order: %v", rows)
	}
	rows = q(t, e, "SELECT a FROM t ORDER BY 1 DESC")
	if rows[0][0].I != 3 {
		t.Errorf("ordinal desc: %v", rows)
	}
	// ordinal across a union
	rows = q(t, e, "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY 1")
	if rows[0][0].I != 1 || rows[5][0].I != 3 {
		t.Errorf("union ordinal: %v", rows)
	}
}

// TestStructuralCodes pins which engine codes abort a job rather than
// becoming error rows: failures of the statement, not of a row it touched.
func TestStructuralCodes(t *testing.T) {
	for _, code := range []int{CodeNoSuchObject, CodeNoSuchColumn, CodeSyntax,
		CodeUnsupported, CodeCopyFailed, CodeInternal} {
		if !Structural(code) {
			t.Errorf("Structural(%d) = false, want true", code)
		}
	}
	for _, code := range []int{CodeDateConv, CodeBadNumeric, CodeStringTrunc, CodeNotNull,
		CodeUniqueness, CodeFieldCount, CodeDivByZero, CodeTypeMismatch} {
		if Structural(code) {
			t.Errorf("Structural(%d) = true, want false", code)
		}
	}
}
