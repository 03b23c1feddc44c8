package sqlparse

import (
	"strings"
	"testing"
)

// rangeInsert is a range statement as the translator prints it.
const rangeInsert = "INSERT INTO PROD.CUSTOMER SELECT TRIM(s.CUST_ID), TRIM(s.CUST_NAME), TO_DATE(s.JOIN_DATE, 'YYYY-MM-DD') FROM etl_stage.job1 s WHERE s.__seq BETWEEN 1 AND 400"

// TestLexAllocBound pins the lexer's allocations on a typical range
// statement: the token slice, and nothing per token. Upper-case keywords,
// identifiers, operators and quote-free strings are slices of the source.
func TestLexAllocBound(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := LexAll(rangeInsert); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("LexAll of a range statement allocates %v times, want at most 1", allocs)
	}
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Errorf("keyword %s is longer than maxKeywordLen %d", kw, maxKeywordLen)
		}
	}
}

func TestLexerKeywordCaseAndQuotes(t *testing.T) {
	toks, err := LexAll(`select Row_Number, "a""b", 'x''''y', '', ""`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{
		{TokKeyword, "SELECT", 1, 1}, {TokKeyword, "ROW_NUMBER", 1, 8}, {TokOp, ",", 1, 18},
		{TokQuotedIdent, `a"b`, 1, 20}, {TokOp, ",", 1, 26}, {TokString, "x''y", 1, 28},
		{TokOp, ",", 1, 36}, {TokString, "", 1, 38}, {TokOp, ",", 1, 40},
		{TokQuotedIdent, "", 1, 42}, {TokEOF, "", 1, 44},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens %+v, want %+v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
}

// TestParseTemplate binds a template with a repeated marker: every
// occurrence is the one slot literal, and the bound statement prints as the
// plain statement does. A plain CDW parse rejects the markers.
func TestParseTemplate(t *testing.T) {
	tmpl := "SELECT s.a FROM st s WHERE s.__seq BETWEEN :__lo AND :__hi UNION ALL SELECT s.a FROM st s WHERE s.__seq BETWEEN :__lo AND :__hi"
	stmt, slots, err := ParseTemplate(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	slots[0].Int, slots[1].Int = 5, 9
	got, err := Print(stmt, DialectCDW)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.NewReplacer(":__lo", "5", ":__hi", "9").Replace(tmpl)
	if got != want {
		t.Errorf("bound template prints\n %s\nwant\n %s", got, want)
	}
	again, err := PrintTemplate(stmt, slots[0], slots[1])
	if err != nil || again != tmpl {
		t.Errorf("PrintTemplate of the parse = %q, %v; want the template", again, err)
	}
	if _, err := Parse(tmpl, DialectCDW); err == nil {
		t.Error("plain CDW Parse accepted a bind marker")
	}
	for _, bad := range []string{
		"SELECT a FROM t WHERE b BETWEEN :__lo AND 3",           // no hi marker
		"SELECT a FROM t WHERE b BETWEEN :__lo AND :__hi + :x",  // another placeholder
		"SELECT a FROM t WHERE b BETWEEN :__lo AND :__hi LIMIT", // not a statement
	} {
		if _, _, err := ParseTemplate(bad); err == nil {
			t.Errorf("ParseTemplate(%q) succeeded", bad)
		}
	}
}
