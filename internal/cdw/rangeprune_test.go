package cdw

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"etlvirt/internal/sqlparse"
)

// rangePruneRow is one decoded row: the restricted INT column's value (valid
// false for NULL) and the rest of the row as SQL literals.
type rangePruneRow struct {
	n     int64
	valid bool
	rest  []string
}

// rangePruneCase is one decoded FuzzRangePruneDifferential input: a staged
// table src (__seq BIGINT, k VARCHAR(4), v VARCHAR(8)), a second table tgt
// (k INTEGER, v VARCHAR(8), n INTEGER), a range over src.__seq or tgt.n, and
// the statements to run.
type rangePruneCase struct {
	src, tgt []rangePruneRow
	onTgt    bool // the range restricts tgt.n rather than src.__seq
	op       string
	lo, hi   int64
	// stmts[i] is the statement under test; refs[i] is the same statement
	// with the range on `col + 0`, which means the same for INT values but
	// is not a bare column, so it never prunes.
	stmts, refs []string
	intraOuter  string // the full intra-range duplicate query, when shape is the DupCheckQueries pair
}

// holds is the Go oracle for the range predicate.
func (c *rangePruneCase) holds(r rangePruneRow) bool {
	if !r.valid {
		return false
	}
	switch c.op {
	case "BETWEEN":
		return r.n >= c.lo && r.n <= c.hi
	case "NOT BETWEEN":
		return r.n < c.lo || r.n > c.hi
	case "=":
		return r.n == c.lo
	default:
		return r.n != c.lo
	}
}

// engine loads the case's tables; with inRange the restricted table holds
// only the rows the range keeps.
func (c *rangePruneCase) engine(t *testing.T, inRange bool) *Engine {
	t.Helper()
	e := NewEngine(nil, Options{})
	mustExec(t, e, "CREATE TABLE src (__seq BIGINT, k VARCHAR(4), v VARCHAR(8))")
	mustExec(t, e, "CREATE TABLE tgt (k INTEGER, v VARCHAR(8), n INTEGER)")
	load := func(table string, rows []rangePruneRow, nFirst, restricted bool) {
		var vals []string
		for _, r := range rows {
			if inRange && restricted && !c.holds(r) {
				continue
			}
			n := "NULL"
			if r.valid {
				n = fmt.Sprint(r.n)
			}
			cols := append([]string{n}, r.rest...)
			if !nFirst {
				cols = append(append([]string{}, r.rest...), n)
			}
			vals = append(vals, "("+strings.Join(cols, ", ")+")")
		}
		if len(vals) > 0 {
			mustExec(t, e, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
		}
	}
	load("src", c.src, true, !c.onTgt)
	load("tgt", c.tgt, false, c.onTgt)
	return e
}

// decodeRangePrune turns fuzz bytes into a case. Missing bytes read as zero.
// Header: shape, flags, operator, lo, hi, planted row, src rows, tgt rows;
// then 3 bytes per src row (__seq; k; v) and 2 per tgt row (k; n).
func decodeRangePrune(data []byte) *rangePruneCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shape, flags := next()%8, next()
	swap, unqual, onTgt := flags&1 != 0, flags&2 != 0, flags&4 != 0
	plant, extra, rangeFirst := flags&8 != 0, flags&16 != 0, flags&32 != 0
	// The last two operators never prune; they guard against pruning on
	// look-alikes.
	c := &rangePruneCase{op: []string{"BETWEEN", "=", "NOT BETWEEN", "<>"}[next()%4]}
	c.lo, c.hi = int64(next()%44)-2, int64(next()%44)-2
	planted := int(next())
	ns, nt := int(next()%65), int(next()%65)
	for i := 0; i < ns; i++ {
		seq, k, v := next(), next(), next()
		key := "NULL"
		if k%8 != 7 {
			key = fmt.Sprintf("'%d'", k%6)
		}
		if plant && i == planted%max(ns, 1) {
			key = "'xx'" // fails CAST(s.k AS INTEGER)
		}
		c.src = append(c.src, rangePruneRow{n: int64(seq % 40), valid: seq%8 != 7,
			rest: []string{key, fmt.Sprintf("'v%d'", v%4)}})
	}
	for i := 0; i < nt; i++ {
		k, n := next(), next()
		key := "NULL"
		if k%8 != 7 {
			key = fmt.Sprint(k % 6)
		}
		c.tgt = append(c.tgt, rangePruneRow{n: int64(n % 40), valid: n%8 != 7,
			rest: []string{key, "'old'"}})
	}

	// Single-table shapes can only restrict src.
	c.onTgt = onTgt && (shape == 1 || shape == 2 || shape == 6 || shape == 7)
	col := "s.__seq"
	if c.onTgt {
		col = "t.n"
	}
	if unqual {
		col = col[2:]
	}
	rangeOn := func(col string) string {
		if strings.HasSuffix(c.op, "BETWEEN") {
			return fmt.Sprintf("%s %s %d AND %d", col, c.op, c.lo, c.hi)
		}
		return fmt.Sprintf("%s %s %d", col, c.op, c.lo)
	}
	const key = "CAST(s.k AS INTEGER)"
	filter := ""
	if extra {
		filter = key + " >= 0"
	}
	build := func(rng string) []string {
		where := func(other string) string {
			if other == "" {
				return rng
			}
			if rangeFirst {
				return rng + " AND " + other
			}
			return other + " AND " + rng
		}
		switch shape {
		case 0:
			return []string{"SELECT s.__seq, s.v, " + key + " FROM src s WHERE " + where(filter)}
		case 1, 2:
			join := " JOIN "
			if shape == 2 {
				join = " LEFT JOIN "
			}
			from := "src s" + join + "tgt t"
			if swap {
				from = "tgt t" + join + "src s"
			}
			return []string{"SELECT s.__seq, s.v, t.k, t.n FROM " + from + " ON t.k = " + key + " WHERE " + where(filter)}
		case 3:
			return []string{
				"SELECT 1 AS one FROM src s WHERE " + where(filter) + " GROUP BY " + key + " HAVING COUNT(*) > 1",
				"SELECT COUNT(*) FROM src s JOIN tgt t ON t.k = " + key + " WHERE " + where(filter),
			}
		case 4, 5:
			guard := filter
			if shape == 5 {
				guard = "NOT EXISTS (SELECT 1 FROM tgt t WHERE t.k = " + key + ")"
			}
			return []string{"INSERT INTO tgt (k, v, n) SELECT " + key + ", s.v, s.__seq FROM src s WHERE " + where(guard)}
		case 6:
			return []string{"UPDATE tgt t SET v = s.v, n = s.__seq FROM src s WHERE t.k = " + key + " AND " + rng}
		}
		return []string{"DELETE FROM tgt t USING src s WHERE t.k = " + key + " AND " + rng}
	}
	c.stmts, c.refs = build(rangeOn(col)), build(rangeOn(col+" + 0"))
	if shape == 3 {
		c.intraOuter = "SELECT COUNT(*) FROM (" + c.stmts[0] + ") d"
	}
	return c
}

// tableRows returns a table's rows by name.
func tableRows(t *testing.T, e *Engine, name string) [][]Datum {
	t.Helper()
	tbl, err := e.Catalog.Lookup(sqlparse.TableName{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return tbl.scan(nil)
}

// diffRangePrune runs sql (pruned) and its never-pruning rewrite ref on two
// engines loaded alike. When the reference succeeds the two must agree on
// result columns, rows (in order), Activity and both tables. When only the
// pruned run succeeds it must agree with the reference over a restricted
// table that holds only the in-range rows.
func diffRangePrune(t *testing.T, c *rangePruneCase, sql, ref string) {
	t.Helper()
	pe, re := c.engine(t, false), c.engine(t, false)
	pres, perr := pe.ExecSQL(sql)
	rres, rerr := re.ExecSQL(ref)
	inRange := false
	switch {
	case rerr == nil && perr != nil:
		t.Fatalf("%s\nunpruned succeeded, pruned failed: %v", sql, perr)
	case rerr != nil && perr != nil:
		return // pruning may only have changed which error is raised
	case rerr != nil:
		inRange, re = true, c.engine(t, true)
		if rres, rerr = re.ExecSQL(ref); rerr != nil {
			t.Fatalf("%s\npruned succeeded, but the in-range rows alone fail unpruned: %v", ref, rerr)
		}
	}
	if !reflect.DeepEqual(pres, rres) {
		t.Errorf("%s (in-range reference: %v)\npruned:    %+v\nreference: %+v", sql, inRange, pres, rres)
	}
	for _, name := range []string{"src", "tgt"} {
		if inRange && (name == "tgt") == c.onTgt {
			continue // the reference holds only the restricted table's in-range rows
		}
		if got, want := tableRows(t, pe, name), tableRows(t, re, name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s\ntable %s after pruned:%s\nafter reference:%s", sql, name, fmtRows(got), fmtRows(want))
		}
	}
}

// FuzzRangePruneDifferential checks range-pruned scans against full scans:
// up to 64 staged rows with an unsorted __seq holding duplicates and NULLs,
// a second table, a BETWEEN or = range on either (or a NOT BETWEEN or <>
// look-alike), and the statement shapes the virtualizer issues —
// single-table SELECT, inner and LEFT joins with the restricted alias on
// either side, the DupCheckQueries pair, INSERT ... SELECT with and without
// the NOT EXISTS guard, UPDATE ... FROM and DELETE ... USING — optionally
// with a key that fails its cast planted on one staged row. Each statement
// is compared with its rewrite on `col + 0`, which scans in full. The
// committed corpus runs in every `go test`.
func FuzzRangePruneDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRangePrune(data)
		for i, sql := range c.stmts {
			diffRangePrune(t, c, sql, c.refs[i])
		}
		if c.intraOuter != "" {
			// The intra-range query wraps the first statement in a COUNT(*).
			e := c.engine(t, false)
			inner, ierr := e.ExecSQL(c.stmts[0])
			outer, oerr := e.ExecSQL(c.intraOuter)
			if (ierr == nil) != (oerr == nil) || (oerr == nil && outer.Rows[0][0].I != int64(len(inner.Rows))) {
				t.Errorf("%s = %v (%v), want the %d groups of its inner query (%v)", c.intraOuter, outer, oerr, len(inner.Rows), ierr)
			}
		}
	})
}

// The branches of the located-split probe (sqlxlate.LocateQuery) over rows
// 2..3 of src: a failing date conversion, a collision with tgt, and a key
// repeating an earlier row of the range.
const (
	locateConv   = "SELECT s.__seq FROM src s WHERE s.__seq BETWEEN 2 AND 3 AND s.v IS NOT NULL AND TRY_TO_DATE(s.v, 'YYYY-MM-DD') IS NULL"
	locateTarget = "SELECT s.__seq FROM src s JOIN tgt t ON t.k = CAST(s.k AS INTEGER) WHERE s.__seq BETWEEN 2 AND 3"
	locateSelf   = "SELECT s.__seq FROM src s JOIN (SELECT s.__seq, CAST(s.k AS INTEGER) AS k0 FROM src s WHERE s.__seq BETWEEN 2 AND 3) s2 ON s2.k0 = CAST(s.k AS INTEGER) WHERE s.__seq BETWEEN 2 AND 3 AND s2.__seq < s.__seq"
)

// TestRangePruneShapes pins which conjuncts prune a scan, by the rows the
// statement copies out of a 6-row src and a 2-row tgt.
func TestRangePruneShapes(t *testing.T) {
	for _, tc := range []struct {
		sql     string
		scanned int64
	}{
		// qualifying shapes: src contributes its in-range rows only
		{"SELECT * FROM src s WHERE s.__seq BETWEEN 2 AND 3", 2},
		{"SELECT * FROM src WHERE __seq = 6", 1},
		{"SELECT * FROM src s WHERE s.v <> 'x' AND s.__seq BETWEEN 5 AND 9", 2},
		{"SELECT * FROM src s WHERE s.__seq BETWEEN 2 AND 6 AND s.__seq = 5", 1},
		{"SELECT * FROM src s WHERE s.__seq BETWEEN 4 AND 3", 0},
		{"SELECT COUNT(*) FROM src s JOIN tgt t ON t.k = s.k WHERE s.__seq = 1", 1 + 2},
		{"SELECT * FROM tgt t JOIN src s ON t.k = s.k WHERE s.__seq = 1", 2 + 1},
		{"SELECT * FROM src s LEFT JOIN tgt t ON t.k = s.k WHERE s.__seq = 1", 1 + 2},
		{"SELECT * FROM src s, tgt t WHERE s.__seq = 1 AND t.n = 7", 1 + 1},
		{"SELECT COUNT(*) FROM (SELECT 1 AS one FROM src s WHERE s.__seq BETWEEN 1 AND 2 GROUP BY s.k) d", 2},
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.k = CAST(s.k AS INTEGER) AND s.__seq = 2", 1},
		{"DELETE FROM tgt t USING src s WHERE t.k = CAST(s.k AS INTEGER) AND __seq = 2", 1},
		{"INSERT INTO tgt (k, v) SELECT CAST(s.k AS INTEGER), s.v FROM src s WHERE s.__seq = 6 AND NOT EXISTS (SELECT 1 FROM tgt t WHERE t.k = CAST(s.k AS INTEGER))", 1},
		// the three branches of sqlxlate.LocateQuery, alone and as one UNION ALL
		{locateConv, 2},
		{locateTarget, 2 + 2},
		{locateSelf, 2 + 2},
		{locateConv + " UNION ALL " + locateTarget + " UNION ALL " + locateSelf, 2 + 4 + 4},
		// not qualifying: every row is scanned
		{"SELECT * FROM src s WHERE s.__seq NOT BETWEEN 2 AND 3", 6},
		{"SELECT * FROM src s WHERE s.__seq <> 2", 6},
		{"SELECT * FROM src s WHERE s.__seq >= 5", 6},
		{"SELECT * FROM src s WHERE 2 = s.__seq", 6},
		{"SELECT * FROM src s WHERE s.__seq + 0 BETWEEN 2 AND 3", 6}, // the fuzz target's reference
		{"SELECT * FROM src s WHERE s.__seq = 2 OR s.v = 'x'", 6},
		{"SELECT * FROM src s WHERE s.k = 2", 6},                   // VARCHAR column
		{"SELECT * FROM src s WHERE s.__seq = '2'", 6},             // not an int literal
		{"SELECT * FROM src s WHERE s.__seq BETWEEN 1 AND 2.5", 6}, // not an int literal
		{"SELECT * FROM src s WHERE s.__seq = s.__seq", 6},         // not a constant
		{"SELECT * FROM tgt t LEFT JOIN src s ON t.k = s.k WHERE s.__seq = 1", 2 + 6},
		{"SELECT * FROM src s JOIN tgt t ON t.k = s.k WHERE __seq = 1", 6 + 2},   // unqualified over two tables
		{"SELECT * FROM src s JOIN tgt s ON s.k = s.k WHERE s.__seq = 1", 6 + 2}, // two tables named s
		{"SELECT * FROM (SELECT * FROM src) s WHERE s.__seq = 1", 6},
		{"UPDATE tgt t SET v = s.v FROM src s WHERE t.k = s.k AND t.n = 7", 6}, // the target is not scanned
	} {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE src (__seq BIGINT, k VARCHAR(4), v VARCHAR(8))")
		mustExec(t, e, "CREATE TABLE tgt (k INTEGER, v VARCHAR(8), n INTEGER)")
		mustExec(t, e, "INSERT INTO src VALUES (3, '1', 'a'), (1, '2', 'b'), (NULL, '1', 'c'), (6, '3', 'd'), (2, '2', 'e'), (5, '4', 'f')")
		mustExec(t, e, "INSERT INTO tgt VALUES (1, 'x', 7), (2, 'y', NULL)")
		before := e.RowsScanned()
		_, err := e.ExecSQL(tc.sql)
		if got := e.RowsScanned() - before; got != tc.scanned {
			t.Errorf("%s: scanned %d rows, want %d (err %v)", tc.sql, got, tc.scanned, err)
		}
	}
}

// TestRangePruneProbesScanOneRow: the per-error probes the import job issues
// against one staged tuple — probeRow/probeField's qualified s.__seq = N and
// stagedTupleSuffix's unqualified __seq = N — copy one row out of a
// 1 000-row stage, not the stage.
func TestRangePruneProbesScanOneRow(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE etl_stage.job1 (__seq BIGINT NOT NULL, CUST_ID VARCHAR(5), JOIN_DATE VARCHAR(10))")
	var rows []string
	for i := 1; i <= 1000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, '%d', '2020-01-01')", i, i))
	}
	mustExec(t, e, "INSERT INTO etl_stage.job1 VALUES "+strings.Join(rows, ", "))
	for _, sql := range []string{
		"SELECT TRIM(s.CUST_ID), TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') FROM etl_stage.job1 s WHERE s.__seq = 500",
		"SELECT TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') FROM etl_stage.job1 s WHERE s.__seq = 500",
		"SELECT * FROM etl_stage.job1 WHERE __seq = 500",
	} {
		before := e.RowsScanned()
		if n := len(q(t, e, sql)); n != 1 {
			t.Fatalf("%s: %d rows, want 1", sql, n)
		}
		if got := e.RowsScanned() - before; got != 1 {
			t.Errorf("%s: scanned %d rows of 1000, want 1", sql, got)
		}
	}
}

// bytesPerRun reports the bytes f allocates per call, averaged over runs
// after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRangeScanAllocBound is the scaling gate for range statements: a
// 10-row range costs what the range holds, not what the stage holds. For
// the target-collision join, the INSERT ... SELECT apply and UPDATE ...
// FROM, the bytes allocated over a 10 000-row stage stay within 1.1x those
// over a 1 000-row stage (the target is the same 100 rows in both).
func TestRangeScanAllocBound(t *testing.T) {
	stmts := []string{
		"SELECT COUNT(*) FROM stage s JOIN tgt t ON t.k = CAST(s.k AS INTEGER) WHERE s.__seq BETWEEN 501 AND 510",
		"INSERT INTO tgt (k, v) SELECT CAST(s.k AS INTEGER), s.v FROM stage s WHERE s.__seq BETWEEN 501 AND 510 AND NOT EXISTS (SELECT 1 FROM tgt t WHERE t.k = CAST(s.k AS INTEGER))",
		"UPDATE tgt t SET v = s.v FROM stage s WHERE t.k = CAST(s.k AS INTEGER) AND s.__seq BETWEEN 501 AND 510",
	}
	measure := func(stageRows int, sql string) float64 {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE tgt (k INTEGER NOT NULL, v VARCHAR(8), PRIMARY KEY (k))")
		mustExec(t, e, "CREATE TABLE stage (__seq BIGINT NOT NULL, k VARCHAR(8), v VARCHAR(8))")
		var tv, sv []string
		for i := 0; i < 100; i++ {
			tv = append(tv, fmt.Sprintf("(%d, 'a')", 500+i))
		}
		for i := 1; i <= stageRows; i++ {
			sv = append(sv, fmt.Sprintf("(%d, '%d', 'b')", i, i))
		}
		mustExec(t, e, "INSERT INTO tgt VALUES "+strings.Join(tv, ", "))
		mustExec(t, e, "INSERT INTO stage VALUES "+strings.Join(sv, ", "))
		return bytesPerRun(5, func() { mustExec(t, e, sql) })
	}
	for _, sql := range stmts {
		small, large := measure(1000, sql), measure(10000, sql)
		t.Logf("%s: %.0f B at 1000 staged rows, %.0f B at 10000", sql, small, large)
		if large > 1.1*small {
			t.Errorf("%s: %.0f B at 10000 staged rows vs %.0f B at 1000, want <= 1.1x", sql, large, small)
		}
	}
}

// TestLocateProbeScanBound: the located-split probe over a 10-row range
// copies what the range holds (both sides of the self-join) plus the target,
// not the stage: over a 10 000-row stage it scans at most 1.1x the rows it
// scans over a 1 000-row stage, and it names the range's bad date, its
// target collision and its repeated key.
func TestLocateProbeScanBound(t *testing.T) {
	probe := strings.NewReplacer("src", "stage", "2 AND 3", "501 AND 510").Replace(
		locateConv + " UNION ALL " + locateTarget + " UNION ALL " + locateSelf)
	measure := func(stageRows int) int64 {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE tgt (k INTEGER NOT NULL, v VARCHAR(8), PRIMARY KEY (k))")
		mustExec(t, e, "CREATE TABLE stage (__seq BIGINT NOT NULL, k VARCHAR(8), v VARCHAR(10))")
		var tv, sv []string
		for i := 0; i < 100; i++ {
			tv = append(tv, fmt.Sprintf("(%d, 'a')", 10000+i))
		}
		for i := 1; i <= stageRows; i++ {
			k, v := fmt.Sprint(i), "2020-01-01"
			switch i {
			case 503:
				v = "9999-99-99"
			case 505:
				k = "10042" // in tgt
			case 507:
				k = "502"
			}
			sv = append(sv, fmt.Sprintf("(%d, '%s', '%s')", i, k, v))
		}
		mustExec(t, e, "INSERT INTO tgt VALUES "+strings.Join(tv, ", "))
		mustExec(t, e, "INSERT INTO stage VALUES "+strings.Join(sv, ", "))
		before := e.RowsScanned()
		var got []int64
		for _, row := range q(t, e, probe) {
			got = append(got, row[0].I)
		}
		if want := []int64{503, 505, 507}; !reflect.DeepEqual(got, want) {
			t.Errorf("probe over %d staged rows named %v, want %v", stageRows, got, want)
		}
		return e.RowsScanned() - before
	}
	small, large := measure(1000), measure(10000)
	t.Logf("probe scanned %d rows at 1000 staged rows, %d at 10000", small, large)
	if float64(large) > 1.1*float64(small) {
		t.Errorf("probe scanned %d rows at 10000 staged rows vs %d at 1000, want <= 1.1x", large, small)
	}
}
