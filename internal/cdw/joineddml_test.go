package cdw

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"etlvirt/internal/sqlparse"
)

// joinedDMLCase is one decoded FuzzJoinedDMLDifferential input: the SQL that
// builds a target and a staged source, and the statement to apply.
type joinedDMLCase struct {
	setup []string
	stmt  string
}

// keyTypes are the key column types the decoder picks from. Mixing them
// exercises the key classes: exact and inexact numerics that Compare
// equates (1, 1.0, 1.00, -0.0), and DATE against date-like VARCHAR, which
// Compare coerces and the hash paths must refuse.
var keyTypes = []string{"BIGINT", "DECIMAL(10,2)", "DOUBLE", "DATE", "VARCHAR(12)"}

// keyLit renders one key value of the given column type as a SQL literal:
// about one in eight is NULL, the rest draw from four values so staged rows
// often share a key.
func keyLit(typ string, b byte) string {
	if b%8 == 7 {
		return "NULL"
	}
	v, form := int(b%8)%4, int(b>>3)%4
	switch typ {
	case "BIGINT":
		return fmt.Sprintf("'%d'", v)
	case "DECIMAL(10,2)":
		return fmt.Sprintf([]string{"'%d'", "'%d.0'", "'%d.00'", "'-%d.00'"}[form], v)
	case "DOUBLE":
		return fmt.Sprintf([]string{"'%d'", "'%d.0'", "'-%d.0'", "'%d.5'"}[form], v)
	case "DATE":
		return fmt.Sprintf("'2020-01-0%d'", v+1)
	default:
		return fmt.Sprintf([]string{"'%d'", "' %d '", "'2020-01-0%d'", "'%d.0'"}[form], v)
	}
}

// decodeJoinedDML turns fuzz bytes into a case. Missing bytes read as zero.
// Header: kind, target key type, source key type, flags, range lo, range
// hi, target rows, source rows; then 2 bytes per target row (key; n and k2)
// and 3 per source row (key; v and d; k2).
func decodeJoinedDML(data []byte) joinedDMLCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	kind := next() % 3
	tgtType := keyTypes[next()%5]
	srcType := tgtType
	if b := next(); b%2 == 1 {
		srcType = keyTypes[(b/2)%5]
	}
	flags := next()
	swapEq, rangeFirst, tgtFilter := flags&1 != 0, flags&2 != 0, flags&4 != 0
	setN, setKey, trim := flags&8 != 0, flags&16 != 0, flags&32 != 0
	setDate, twoKeys := flags&64 != 0, flags&128 != 0
	lo, hi := int(next()%70), int(next()%70)
	nt, ns := int(next()%65), int(next()%65)

	c := joinedDMLCase{setup: []string{
		"CREATE TABLE tgt (k " + tgtType + ", v VARCHAR(8), d DATE, n INTEGER, k2 INTEGER)",
		"CREATE TABLE src (__seq BIGINT, k " + srcType + ", v VARCHAR(8), d VARCHAR(12), k2 INTEGER)",
	}}
	var rows []string
	for i := 0; i < nt; i++ {
		key, aux := next(), next()
		n := "NULL"
		if aux%5 != 4 {
			n = fmt.Sprint(aux % 5)
		}
		rows = append(rows, fmt.Sprintf("(%s, 'old', '2019-12-31', %s, %d)", keyLit(tgtType, key), n, (aux>>3)%3))
	}
	if len(rows) > 0 {
		c.setup = append(c.setup, "INSERT INTO tgt VALUES "+strings.Join(rows, ", "))
	}
	rows = rows[:0]
	for i := 0; i < ns; i++ {
		key, val, aux := next(), next(), next()
		d := fmt.Sprintf("'2021-02-0%d'", (val>>2)%8+1)
		switch (val >> 2) % 8 {
		case 0:
			d = "NULL"
		case 1:
			d = "'bad-date'"
		}
		rows = append(rows, fmt.Sprintf("(%d, %s, 'v%d', %s, %d)", i+1, keyLit(srcType, key), val%4, d, aux%3))
	}
	if len(rows) > 0 {
		c.setup = append(c.setup, "INSERT INTO src VALUES "+strings.Join(rows, ", "))
	}

	tk, skey := "t.k", "s.k"
	if kind == 2 && setKey {
		tk = "k" // the upsert guard's unqualified form: the inner table shadows s
	}
	if trim {
		skey = "TRIM(s.k)"
	}
	conds := []string{tk + " = " + skey}
	if swapEq {
		conds[0] = skey + " = " + tk
	}
	if twoKeys {
		conds = append(conds, "t.k2 = s.k2")
	}
	if tgtFilter {
		conds = append(conds, "t.n >= 2")
	}
	rng := fmt.Sprintf("s.__seq BETWEEN %d AND %d", lo, hi)
	switch kind {
	case 0, 1:
		if rangeFirst {
			conds = append([]string{rng}, conds...)
		} else {
			conds = append(conds, rng)
		}
		where := strings.Join(conds, " AND ")
		if kind == 1 {
			c.stmt = "DELETE FROM tgt t USING src s WHERE " + where
			break
		}
		set := []string{"v = s.v"}
		if setDate {
			set = append(set, "d = TO_DATE(s.d, 'YYYY-MM-DD')")
		}
		if setN {
			set = append(set, "n = t.n + s.__seq")
		}
		if setKey {
			set = append(set, "k = s.k2")
		}
		c.stmt = "UPDATE tgt t SET " + strings.Join(set, ", ") + " FROM src s WHERE " + where
	default:
		from := "tgt t"
		if setKey {
			from = "tgt"
			for i := range conds {
				conds[i] = strings.ReplaceAll(conds[i], "t.", "tgt.")
			}
		}
		guard := "NOT EXISTS (SELECT 1 FROM " + from + " WHERE " + strings.Join(conds, " AND ") + ")"
		where := rng + " AND " + guard
		if rangeFirst {
			where = guard + " AND " + rng
		}
		c.stmt = "INSERT INTO tgt (k, v, d, n, k2) SELECT " + skey +
			", s.v, TO_DATE(s.d, 'YYYY-MM-DD'), s.__seq, s.k2 FROM src s WHERE " + where
	}
	return c
}

// sameErr reports whether two statement outcomes fail identically.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ea, eb := AsError(a), AsError(b)
	return ea.Code == eb.Code && ea.Row == eb.Row && ea.Field == eb.Field && ea.Msg == eb.Msg
}

// fmtRow renders a row for failure messages.
func fmtRow(row []Datum) string {
	parts := make([]string, len(row))
	for i, d := range row {
		parts[i] = d.GroupKey()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func fmtUpdates(ups []rowUpdate) string {
	var b strings.Builder
	for _, u := range ups {
		fmt.Fprintf(&b, " #%d%s", u.i, fmtRow(u.row))
	}
	return b.String()
}

func fmtRows(rows [][]Datum) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(" " + fmtRow(r))
	}
	return b.String()
}

// diffJoinedDML runs stmt's hash path and its nested loop against the same
// engine state and reports any difference in rows, Activity or error. It
// returns whether the hash path took the statement (false: it fell back).
func diffJoinedDML(t *testing.T, e *Engine, sql string) bool {
	t.Helper()
	stmt, err := sqlparse.Parse(sql, sqlparse.DialectCDW)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ctx := &evalCtx{}
	switch s := stmt.(type) {
	case *sqlparse.UpdateStmt:
		tbl, _ := e.Catalog.Lookup(s.Table)
		setIdx := make([]int, len(s.Set))
		for i, a := range s.Set {
			setIdx[i] = tbl.ColIndex(a.Column)
		}
		sc, err := e.newDMLScope(tbl, s.Alias, s.From, s.Where)
		if err != nil {
			t.Fatal(err)
		}
		hu, hn, hashed, herr := e.updateHashed(ctx, sc, s.Set, setIdx)
		nu, nn, nerr := e.updateNested(ctx, sc, s.Set, setIdx)
		if hashed && (!sameErr(herr, nerr) || (nerr == nil && (hn != nn || !reflect.DeepEqual(hu, nu)))) {
			t.Errorf("%s\nhash:   activity %d err %v rows%s\nnested: activity %d err %v rows%s",
				sql, hn, herr, fmtUpdates(hu), nn, nerr, fmtUpdates(nu))
		}
		return hashed
	case *sqlparse.DeleteStmt:
		tbl, _ := e.Catalog.Lookup(s.Table)
		sc, err := e.newDMLScope(tbl, s.Alias, s.Using, s.Where)
		if err != nil {
			t.Fatal(err)
		}
		hd, hashed := e.deleteHashed(ctx, sc)
		nd, nerr := e.deleteNested(ctx, sc)
		if hashed && (nerr != nil || !reflect.DeepEqual(hd, nd)) {
			t.Errorf("%s\nhash:   deletes %v\nnested: deletes %v err %v", sql, hd, nd, nerr)
		}
		return hashed
	case *sqlparse.InsertStmt:
		src, err := e.buildFrom(s.Select.From, nil, e.planScans(s.Select.From, s.Select.Where))
		if err != nil {
			t.Fatal(err)
		}
		semi := e.semiJoins(s.Select.Where, src)
		hr, herr := e.whereFilter(s.Select.Where, src, nil, semi)
		nr, nerr := e.whereFilter(s.Select.Where, src, nil, nil)
		if !sameErr(herr, nerr) || !reflect.DeepEqual(hr, nr) {
			t.Errorf("%s\nhash:   err %v rows%s\nnested: err %v rows%s", sql, herr, fmtRows(hr), nerr, fmtRows(nr))
		}
		return semi != nil
	}
	t.Fatalf("unexpected statement %T", stmt)
	return false
}

// FuzzJoinedDMLDifferential checks the hash paths of UPDATE ... FROM,
// DELETE ... USING and the NOT EXISTS-guarded INSERT ... SELECT against the
// nested loop they replace: identical rows, Activity and error code, row
// and field, over up to 64 target and 64 staged rows with NULL and
// duplicate keys, mixed numeric and DATE/VARCHAR key kinds, bad dates in
// SET and __seq ranges. The committed corpus runs in every `go test`.
func FuzzJoinedDMLDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeJoinedDML(data)
		e := NewEngine(nil, Options{})
		for _, sql := range c.setup {
			mustExec(t, e, sql)
		}
		diffJoinedDML(t, e, c.stmt)
	})
}

// TestJoinedDMLHashShapes pins which statements take the hash paths: the
// stream's MERGE-style triple and the upsert guard do, and each documented
// fallback trigger sends the statement to the nested loop.
func TestJoinedDMLHashShapes(t *testing.T) {
	setup := func() *Engine {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE tgt (k VARCHAR(12), v VARCHAR(8), d DATE, n INTEGER)")
		mustExec(t, e, "CREATE TABLE src (__seq BIGINT, k VARCHAR(12), v VARCHAR(8), d VARCHAR(12))")
		mustExec(t, e, "INSERT INTO tgt VALUES ('1', 'a', '2020-01-01', 1), ('2', 'b', '2020-01-02', 2)")
		mustExec(t, e, "INSERT INTO src VALUES (1, ' 1', 'x', '2020-01-01'), (2, '3', 'y', '2020-01-03'), (3, '1 ', 'z', 'bad')")
		return e
	}
	for _, tc := range []struct {
		sql    string
		hashed bool
	}{
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.k = TRIM(s.k) AND s.__seq BETWEEN 1 AND 2", true},
		{"DELETE FROM tgt t USING src s WHERE t.k = TRIM(s.k) AND s.__seq BETWEEN 1 AND 2", true},
		{"INSERT INTO tgt (k, v) SELECT TRIM(s.k), s.v FROM src s WHERE s.__seq BETWEEN 1 AND 2 AND NOT EXISTS (SELECT 1 FROM tgt t WHERE t.k = TRIM(s.k))", true},
		{"INSERT INTO tgt (k, v) SELECT TRIM(s.k), s.v FROM src s WHERE s.__seq BETWEEN 1 AND 2 AND NOT EXISTS (SELECT 1 FROM tgt WHERE k = TRIM(s.k))", true},
		// no equality between the two sides
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.k > s.k", false},
		{"DELETE FROM tgt t USING src s WHERE t.k = t.v AND s.__seq = 1", false},
		// a conjunct reading both sides outside an equality
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.k = s.k AND t.v <> s.v", false},
		// the WHERE reads a column SET assigns
		{"UPDATE tgt t SET k = s.v FROM src s WHERE t.k = TRIM(s.k)", false},
		// mixed key classes: DATE against VARCHAR
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.d = s.d AND s.__seq < 3", false},
		// an evaluation error in a pre-pass (the bad date on row 3)
		{"DELETE FROM tgt t USING src s WHERE t.d = TO_DATE(s.d, 'YYYY-MM-DD')", false},
		{"INSERT INTO tgt (k) SELECT s.k FROM src s WHERE NOT EXISTS (SELECT 1 FROM tgt t WHERE t.d = TO_DATE(s.d, 'YYYY-MM-DD'))", false},
	} {
		if got := diffJoinedDML(t, setup(), tc.sql); got != tc.hashed {
			t.Errorf("%s: hashed = %v, want %v", tc.sql, got, tc.hashed)
		}
	}
}

// TestUpdateFromLastMatchWins pins the two invariants the EDW differential
// oracle depends on, through Exec: duplicate staged images of one key apply
// in staged order (the last wins), and Activity counts every application.
func TestUpdateFromLastMatchWins(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE tgt (k BIGINT, v VARCHAR(8), n INTEGER)")
	mustExec(t, e, "CREATE TABLE src (__seq BIGINT, k DECIMAL(10,2), v VARCHAR(8))")
	mustExec(t, e, "INSERT INTO tgt VALUES (1, 'a', 0), (2, 'b', 0), (NULL, 'c', 0)")
	mustExec(t, e, "INSERT INTO src VALUES (1, '1.00', 'x'), (2, '2.0', 'y'), (3, '1', 'z'), (4, NULL, 'w')")
	res := mustExec(t, e, "UPDATE tgt t SET v = s.v, n = t.n + s.__seq FROM src s WHERE t.k = s.k AND s.__seq BETWEEN 1 AND 4")
	if res.Activity != 3 {
		t.Errorf("activity = %d, want 3 (one per match application)", res.Activity)
	}
	rows := q(t, e, "SELECT v, n FROM tgt ORDER BY v")
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%s %d", r[0].S, r[1].I))
	}
	if strings.Join(got, " ") != "c 0 y 2 z 4" {
		t.Errorf("rows = %s, want c 0 y 2 z 4", got)
	}
}

// TestHashJoinMixedKindKeys: the SELECT hash join must agree with its own
// nested loop (forced here by an OR conjunct, or by a comma join filtered
// in WHERE) when the key kinds differ. DATE = VARCHAR coerces in Compare,
// and FLOAT -0.0 equals INTEGER 0.
func TestHashJoinMixedKindKeys(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE a (d DATE, f DOUBLE)")
	mustExec(t, e, "CREATE TABLE b (s VARCHAR(10), i INTEGER)")
	mustExec(t, e, "INSERT INTO a VALUES ('2020-01-01', '-0.0')")
	mustExec(t, e, "INSERT INTO b VALUES ('2020-01-01', 0)")
	for _, on := range []string{"a.d = b.s", "a.f = b.i"} {
		for _, sql := range []string{
			"SELECT COUNT(*) FROM a JOIN b ON " + on,
			"SELECT COUNT(*) FROM a JOIN b ON " + on + " OR 1 = 0",
			"SELECT COUNT(*) FROM a, b WHERE " + on,
		} {
			if n := q(t, e, sql)[0][0].I; n != 1 {
				t.Errorf("%s = %d, want 1", sql, n)
			}
		}
	}
}

// TestJoinKeyEvalAllocFree is the alloc-regression gate for the per-row
// work of every joined statement: resolving column references and calling
// a scalar function over a bound frame allocate nothing.
func TestJoinKeyEvalAllocFree(t *testing.T) {
	e := newTestEngine(t)
	stmt, err := sqlparse.Parse("SELECT t.ID = TRIM(s.ID)", sqlparse.DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	x := stmt.(*sqlparse.SelectStmt).Items[0].Expr
	jf := joinFrame([]frameCol{{qual: "t", name: "id"}, {qual: "t", name: "v"}},
		[]frameCol{{qual: "s", name: "id"}, {qual: "s", name: "v"}})
	jf.bind([]Datum{StringD("k1"), StringD("a")}, []Datum{StringD(" k1 "), StringD("b")})
	ctx := &evalCtx{}
	var d Datum
	allocs := testing.AllocsPerRun(100, func() {
		d, err = e.eval(ctx, x, jf)
	})
	if err != nil || !d.Bool {
		t.Fatalf("eval = %+v, %v; want TRUE", d, err)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per evaluation, want 0", allocs)
	}
}
