package ltype

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVartextRecord(t *testing.T) {
	cases := []struct {
		line string
		want []string
	}{
		{"123|Smith|2012-01-01", []string{"123", "Smith", "2012-01-01"}},
		{"a||c", []string{"a", "", "c"}},
		{"", []string{""}},
		{"|", []string{"", ""}},
		{`a\|b|c`, []string{"a|b", "c"}},
		{`a\\|b`, []string{`a\`, "b"}},
		{`trailing\`, []string{`trailing\`}},
	}
	for _, c := range cases {
		got := VartextRecord(c.line, '|')
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("VartextRecord(%q) = %#v, want %#v", c.line, got, c.want)
		}
	}
}

func TestAppendVartextRoundTrip(t *testing.T) {
	fields := []string{"plain", "has|pipe", `has\backslash`, "has\nnewline", ""}
	enc := AppendVartext(nil, fields, '|')
	lines := SplitVartextLines(enc)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (escaped newline should not split): %q", len(lines), enc)
	}
	got := VartextRecord(lines[0], '|')
	// The escaped newline survives as a literal newline in the field.
	want := []string{"plain", "has|pipe", `has\backslash`, "has\nnewline", ""}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %#v, want %#v", got, want)
	}
}

func TestPropertyVartextRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%6) + 1
		fields := make([]string, count)
		for i := range fields {
			fields[i] = randString(r, r.Intn(12), true)
		}
		enc := AppendVartext(nil, fields, '|')
		lines := SplitVartextLines(enc)
		if len(lines) != 1 {
			return false
		}
		return reflect.DeepEqual(VartextRecord(lines[0], '|'), fields)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseVartextRecord(t *testing.T) {
	layout := custLayout()
	rec, err := ParseVartextRecord("123|Smith|2012-01-01", '|', layout)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0].S != "123" || rec[1].S != "Smith" || rec[2].S != "2012-01-01" {
		t.Errorf("unexpected record %+v", rec)
	}
	// wrong field count is a data error
	if _, err := ParseVartextRecord("only|two", '|', layout); err == nil {
		t.Error("field-count mismatch accepted")
	}
	// empty field is NULL
	rec, err = ParseVartextRecord("123||2012-01-01", '|', layout)
	if err != nil {
		t.Fatal(err)
	}
	if !rec[1].Null {
		t.Error("empty vartext field should be NULL")
	}
	// overlong field for VARCHAR(5)
	if _, err := ParseVartextRecord("toolong|x|y", '|', layout); err == nil {
		t.Error("overlong field accepted")
	}
}

func TestValidateVartextLayout(t *testing.T) {
	if err := ValidateVartextLayout(custLayout()); err != nil {
		t.Errorf("character layout rejected: %v", err)
	}
	bad := &Layout{Name: "B", Fields: []Field{{Name: "N", Type: Simple(KindInteger)}}}
	if err := ValidateVartextLayout(bad); err == nil {
		t.Error("numeric field accepted for vartext")
	}
}

func TestSplitVartextLines(t *testing.T) {
	data := []byte("a|b\nc|d\r\ne|f")
	lines := SplitVartextLines(data)
	want := []string{"a|b", "c|d", "e|f"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("SplitVartextLines = %#v, want %#v", lines, want)
	}
	if got := SplitVartextLines(nil); got != nil {
		t.Errorf("SplitVartextLines(nil) = %#v, want nil", got)
	}
	// escaped newline joins lines; double backslash before newline splits
	lines = SplitVartextLines([]byte("a\\\nb\nc\\\\\nd\\\ne\\\nf"))
	want = []string{"a\\\nb", "c\\\\", "d\\\ne\\\nf"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("escaped-newline split = %#v, want %#v", lines, want)
	}
}
