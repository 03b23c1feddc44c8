package cdw

import (
	"reflect"
	"strings"
	"testing"
)

// evalScalar evaluates a single scalar expression through the SQL surface.
func evalScalar(t *testing.T, e *Engine, expr string) Datum {
	t.Helper()
	rows := q(t, e, "SELECT "+expr)
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("scalar %q returned %v", expr, rows)
	}
	return rows[0][0]
}

func TestDatetimeFormatModel(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		expr, want string
	}{
		{"to_char(to_date('2023-06-30', 'YYYY-MM-DD'), 'YYYY/MM/DD')", "2023/06/30"},
		{"to_char(to_date('2023-06-30', 'YYYY-MM-DD'), 'DD.MM.YY')", "30.06.23"},
		{"to_char(to_timestamp('2023-06-30 13:04:05', 'YYYY-MM-DD HH24:MI:SS'), 'HH24:MI:SS')", "13:04:05"},
		{"to_char(to_date('23-06-30', 'YY-MM-DD'), 'YYYY-MM-DD')", "2023-06-30"},
		// element names match in any case; other bytes are literals
		{"to_char(to_date('2023-06-30', 'yyyy-mm-dd'), 'dd/mm/yyyy')", "30/06/2023"},
		{"to_char(to_date('2023-06-30', 'Yyyy-Mm-dD'), 'yY.Mm.dd')", "23.06.30"},
		{"to_char(to_timestamp('2023-06-30 13:04:05', 'yyyy-mm-dd hh24:mi:ss'), 'hh:mi:ss')", "13:04:05"},
		{"to_char(to_timestamp('20230630t130405', 'yyyymmddtHHmiss'), 'YYYY-MM-DD HH24:MI:SS')", "2023-06-30 13:04:05"},
		{"to_char(to_date('x2023y', 'xyyyyy'), 'Q YYYY Z')", "Q 2023 Z"},
	}
	for _, c := range cases {
		if got := evalScalar(t, e, c.expr).Render(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	for _, bad := range []string{
		"to_date('2023-6-30x', 'YYYY-MM-DD')",                          // trailing input
		"to_date('2023/06/30', 'YYYY-MM-DD')",                          // literal mismatch
		"to_date('2023-13-01', 'YYYY-MM-DD')",                          // month range
		"to_timestamp('2023-06-30 25:00:00', 'YYYY-MM-DD HH24:MI:SS')", // hour range
		"to_date('2023-06-30', 'yyyy/mm/dd')",                          // literal mismatch, lower case
		"to_date('2023-06-30T', 'yyyy-mm-dd')",                         // trailing input, lower case
	} {
		if _, err := e.ExecSQL("SELECT " + bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestFormatModelAllocFree: TO_DATE and TO_TIMESTAMP run once per imported
// row, so they walk the format model in place whatever its case and
// allocate nothing per call.
func TestFormatModelAllocFree(t *testing.T) {
	for _, c := range []struct {
		conv     func(s, model string) (Datum, error)
		s, model string
	}{
		{toDate, "2023-06-30", "YYYY-MM-DD"},
		{toDate, "2023-06-30", "yyyy-mm-dd"},
		{toTimestamp, "2023-06-30 13:04:05", "YYYY-MM-DD HH24:MI:SS"},
		{toTimestamp, "2023-06-30 13:04:05", "yyyy-mm-dd hh24:mi:ss"},
	} {
		if _, err := c.conv(c.s, c.model); err != nil {
			t.Fatalf("%q with %q: %v", c.s, c.model, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.conv(c.s, c.model) }); n != 0 {
			t.Errorf("%q with %q: %v allocations per call, want 0", c.s, c.model, n)
		}
	}
}

// TestTryToDate: the TRY_ forms are TO_DATE/TO_TIMESTAMP with NULL in place
// of a conversion error; arity errors still fail.
func TestTryToDate(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct{ try, plain string }{
		{"try_to_date('2023-06-30', 'YYYY-MM-DD')", "to_date('2023-06-30', 'YYYY-MM-DD')"},
		{"try_to_timestamp('2023-06-30 13:04:05', 'YYYY-MM-DD HH24:MI:SS')", "to_timestamp('2023-06-30 13:04:05', 'YYYY-MM-DD HH24:MI:SS')"},
		{"try_to_date(NULL, 'YYYY-MM-DD')", "to_date(NULL, 'YYYY-MM-DD')"},
	} {
		if got, want := evalScalar(t, e, c.try), evalScalar(t, e, c.plain); !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, want %+v", c.try, got, want)
		}
	}
	for _, bad := range []string{
		"try_to_date('9999-99-99', 'YYYY-MM-DD')",
		"try_to_date('2023/06/30', 'YYYY-MM-DD')",
		"try_to_timestamp('2023-06-30 25:00:00', 'YYYY-MM-DD HH24:MI:SS')",
	} {
		if d := evalScalar(t, e, bad); !d.IsNull() {
			t.Errorf("%s = %+v, want NULL", bad, d)
		}
	}
	if _, err := e.ExecSQL("SELECT try_to_date('2023-06-30')"); err == nil {
		t.Error("try_to_date with one argument accepted")
	}
}

func TestNumericFunctions(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		expr string
		want float64
	}{
		{"abs(-4.5)", 4.5},
		{"round(2.567, 2)", 2.57},
		{"round(25.5)", 26},
		{"floor(2.9)", 2},
		{"ceil(2.1)", 3},
		{"sqrt(16)", 4},
		{"mod(10, 3)", 1},
	}
	for _, c := range cases {
		d := evalScalar(t, e, c.expr)
		if d.asFloat() != c.want {
			t.Errorf("%s = %v, want %v", c.expr, d.asFloat(), c.want)
		}
	}
	if _, err := e.ExecSQL("SELECT sqrt(-1)"); err == nil {
		t.Error("sqrt(-1) accepted")
	}
	if got := evalScalar(t, e, "abs(-7)"); got.Kind != KInt || got.I != 7 {
		t.Errorf("abs int: %+v", got)
	}
}

func TestGreatestLeastZeroifnull(t *testing.T) {
	e := newTestEngine(t)
	if d := evalScalar(t, e, "greatest(3, 9, 1)"); d.I != 9 {
		t.Errorf("greatest = %+v", d)
	}
	if d := evalScalar(t, e, "least('b', 'a', 'c')"); d.S != "a" {
		t.Errorf("least = %+v", d)
	}
	if d := evalScalar(t, e, "greatest(1, NULL, 3)"); !d.IsNull() {
		t.Errorf("greatest with NULL = %+v", d)
	}
	if d := evalScalar(t, e, "zeroifnull(NULL)"); d.I != 0 {
		t.Errorf("zeroifnull = %+v", d)
	}
	if d := evalScalar(t, e, "zeroifnull(7)"); d.I != 7 {
		t.Errorf("zeroifnull(7) = %+v", d)
	}
}

func TestStringEdgeCases(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		expr, want string
	}{
		{"substring('abc', 0, 2)", "a"},    // pre-1 start consumes length
		{"substring('abc', -1, 3)", "a"},   // ditto
		{"substring('abc', 9)", ""},        // past the end
		{"substr('abc', 2, 0)", ""},        // zero length
		{"lpad('xyz', 2, '0')", "xy"},      // pad target shorter than input truncates
		{"replace('aaa', '', 'b')", "aaa"}, // empty needle is a no-op
		{"reverse('abc')", "cba"},
		{"concat('a', 1, 'b')", "a1b"},
		{"trim('  x  ') || rtrim('y  ') || ltrim('  z')", "xyz"},
	}
	for _, c := range cases {
		if got := evalScalar(t, e, c.expr); got.S != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got.S, c.want)
		}
	}
	if d := evalScalar(t, e, "upper(NULL)"); !d.IsNull() {
		t.Errorf("upper(NULL) = %+v", d)
	}
	if d := evalScalar(t, e, "length('')"); d.I != 0 {
		t.Errorf("length('') = %+v", d)
	}
}

func TestFunctionArityErrors(t *testing.T) {
	e := newTestEngine(t)
	for _, bad := range []string{
		"trim()", "trim('a', 'b')", "nullif(1)", "substring('a')",
		"lpad('a', 2)", "to_date('x')", "wat(1)",
	} {
		if _, err := e.ExecSQL("SELECT " + bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	ee := AsError(func() error { _, err := e.ExecSQL("SELECT wat(1)"); return err }())
	if ee.Code != CodeUnsupported || !strings.Contains(ee.Msg, "WAT") {
		t.Errorf("unknown function error: %+v", ee)
	}
}

func TestDateArithmetic(t *testing.T) {
	e := newTestEngine(t)
	if d := evalScalar(t, e, "DATE '2020-03-01' - DATE '2020-02-01'"); d.I != 29 {
		t.Errorf("date diff = %+v (2020 is a leap year)", d)
	}
	if d := evalScalar(t, e, "DATE '2020-02-28' + 2"); d.Render() != "2020-03-01" {
		t.Errorf("date + int = %v", d.Render())
	}
	if d := evalScalar(t, e, "add_months(DATE '2020-11-15', 3)"); d.Render() != "2021-02-15" {
		t.Errorf("add_months = %v", d.Render())
	}
	if d := evalScalar(t, e, "month(DATE '2020-11-15') * 100 + day(DATE '2020-11-15')"); d.I != 1115 {
		t.Errorf("month/day = %+v", d)
	}
}
