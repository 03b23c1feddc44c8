package ltype

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendTextMatchesFmt pins the append codecs to the fmt-based
// formatting they replaced: AppendText must produce byte-identical output
// for every kind, including the sign-handling corners of zero-padded
// date/time rendering.
func TestAppendTextMatchesFmt(t *testing.T) {
	cases := []Value{
		IntValue(KindByteInt, -128),
		IntValue(KindSmallInt, 32767),
		IntValue(KindInteger, -2147483648),
		IntValue(KindBigInt, math.MaxInt64),
		IntValue(KindBigInt, math.MinInt64),
		FloatValue(0),
		FloatValue(-1.5e300),
		FloatValue(math.Inf(1)),
		FloatValue(math.NaN()),
		StringValue(KindChar, "hello"),
		StringValue(KindVarChar, "with,comma"),
		StringValue(KindTimestamp, "2024-01-02 03:04:05.000000"),
		DateValue(2024, 2, 29),
		DateValue(1900, 1, 1),
		IntValue(KindTime, 0),
		IntValue(KindTime, 23*3600+59*60+59),
		BytesValue(KindByte, []byte{0x00, 0xAB, 0xFF}),
		BytesValue(KindVarByte, nil),
		NullValue(KindInteger),
		NullValue(KindVarChar),
	}
	for _, v := range cases {
		got := string(v.AppendText(nil))
		if got != v.Text() {
			t.Errorf("%s: AppendText = %q, Text = %q", v.Kind, got, v.Text())
		}
	}

	// Reference renderings fmt would have produced, pinned explicitly.
	refs := []struct {
		v    Value
		want string
	}{
		{DateValue(2024, 2, 29), "2024-02-29"},
		{DateValue(999, 1, 5), "0999-01-05"},
		{IntValue(KindTime, 3661), "01:01:01"},
		{BytesValue(KindByte, []byte{0x0F, 0xA0}), "0FA0"},
		{IntValue(KindBigInt, math.MinInt64), "-9223372036854775808"},
	}
	for _, c := range refs {
		if got := string(c.v.AppendText(nil)); got != c.want {
			t.Errorf("AppendText(%s) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

// TestAppendDecimalMatchesFormatDecimal sweeps scales and magnitudes,
// including the negative and leading-zero corners.
func TestAppendDecimalMatchesFormatDecimal(t *testing.T) {
	vals := []int64{0, 1, -1, 5, -5, 99, 100, -100, 12345, -12345,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, u := range vals {
		for scale := 0; scale <= 6; scale++ {
			want := FormatDecimal(u, scale)
			got := string(AppendDecimal(nil, u, scale))
			if got != want {
				t.Errorf("AppendDecimal(%d, %d) = %q, want %q", u, scale, got, want)
			}
		}
	}
}

// TestAppendZeroPadded pins the %0*d semantics including negatives, where
// the sign counts toward the total width.
func TestAppendZeroPadded(t *testing.T) {
	cases := []struct {
		v     int64
		width int
	}{
		{0, 2}, {5, 2}, {42, 2}, {123, 2}, {7, 4}, {-7, 4}, {-123, 2},
		{math.MinInt64, 4}, {9999, 4},
	}
	for _, c := range cases {
		want := fmt.Sprintf("%0*d", c.width, c.v)
		got := string(appendZeroPadded(nil, c.v, c.width))
		if got != want {
			t.Errorf("appendZeroPadded(%d, %d) = %q, want %q", c.v, c.width, got, want)
		}
	}
}

// TestDecodeRecordIntoMatchesDecodeRecord round-trips randomized records
// through both decoders and requires identical values (modulo the
// documented DECIMAL difference: the Into variant leaves S empty).
func TestDecodeRecordIntoMatchesDecodeRecord(t *testing.T) {
	layout := &Layout{Name: "L", Fields: []Field{
		{Name: "A", Type: Simple(KindInteger)},
		{Name: "B", Type: VarChar(20)},
		{Name: "C", Type: Char(8)},
		{Name: "D", Type: Decimal(12, 3)},
		{Name: "E", Type: Simple(KindFloat)},
		{Name: "F", Type: Simple(KindDate)},
		{Name: "G", Type: Type{Kind: KindVarByte, Length: 16}},
	}}
	rng := rand.New(rand.NewSource(42))
	scratch := make(Record, len(layout.Fields))
	for i := 0; i < 200; i++ {
		rec := Record{
			IntValue(KindInteger, int64(int32(rng.Int63()))),
			StringValue(KindVarChar, strings.Repeat("x", rng.Intn(20))),
			StringValue(KindChar, "abc"),
			IntValue(KindDecimal, rng.Int63n(1e12)-5e11),
			FloatValue(rng.NormFloat64()),
			DateValue(1900+rng.Intn(300), 1+rng.Intn(12), 1+rng.Intn(28)),
			BytesValue(KindVarByte, []byte{byte(i), byte(i >> 8)}),
		}
		rec[3].S = FormatDecimal(rec[3].I, 3)
		if i%3 == 0 {
			rec[rng.Intn(len(rec))] = NullValue(layout.Fields[rng.Intn(len(rec))].Type.Kind)
			// re-pick so the null's kind matches its slot
			for f := range rec {
				if rec[f].Null {
					rec[f] = NullValue(layout.Fields[f].Type.Kind)
				}
			}
		}
		buf, err := EncodeRecord(nil, layout, rec)
		if err != nil {
			t.Fatal(err)
		}
		want, n1, err := DecodeRecord(buf, layout)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := DecodeRecordInto(scratch, string(buf), layout)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("consumed %d vs %d bytes", n1, n2)
		}
		for f := range want {
			w, g := want[f], scratch[f]
			if g.Kind == KindDecimal && !g.Null {
				if g.S != "" {
					t.Errorf("field %d: DecodeRecordInto materialized decimal S %q", f, g.S)
				}
				g.S = FormatDecimal(g.I, layout.Fields[f].Type.Scale)
			}
			if !w.Equal(g) || w.S != g.S {
				t.Errorf("field %d: DecodeRecord %+v vs Into %+v", f, w, g)
			}
		}
	}
}

// TestDecodeRecordIntoScratchReuse checks that reusing one scratch across
// records does not leak values between rows, including B capacity reuse.
func TestDecodeRecordIntoScratchReuse(t *testing.T) {
	layout := &Layout{Name: "L", Fields: []Field{
		{Name: "S", Type: VarChar(10)},
		{Name: "B", Type: Type{Kind: KindVarByte, Length: 8}},
	}}
	first := Record{StringValue(KindVarChar, "aaaa"), BytesValue(KindVarByte, []byte{1, 2, 3, 4})}
	second := Record{NullValue(KindVarChar), BytesValue(KindVarByte, []byte{9})}
	buf, err := EncodeRecord(nil, layout, first)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = EncodeRecord(buf, layout, second)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make(Record, 2)
	n, err := DecodeRecordInto(scratch, string(buf), layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecordInto(scratch, string(buf[n:]), layout); err != nil {
		t.Fatal(err)
	}
	if !scratch[0].Null || scratch[0].S != "" {
		t.Errorf("scratch[0] leaked previous row: %+v", scratch[0])
	}
	if string(scratch[1].B) != "\x09" {
		t.Errorf("scratch[1].B = %v, want [9]", scratch[1].B)
	}
}

// TestDecodeRecordIntoScratchSize pins the scratch-size guard.
func TestDecodeRecordIntoScratchSize(t *testing.T) {
	layout := &Layout{Name: "L", Fields: []Field{{Name: "A", Type: Simple(KindInteger)}}}
	if _, err := DecodeRecordInto(make(Record, 2), "", layout); err == nil {
		t.Fatal("expected scratch-size error")
	}
}

// TestParseVartextRecordIntoMatches compares the scratch parser against the
// allocating one, across escapes and error cases.
func TestParseVartextRecordIntoMatches(t *testing.T) {
	layout := &Layout{Name: "V", Fields: []Field{
		{Name: "A", Type: VarChar(30)},
		{Name: "B", Type: VarChar(30)},
		{Name: "C", Type: Char(10)},
	}}
	lines := []string{
		"a|b|c",
		"||",
		`esc\|aped|plain|x`,
		`back\\slash|a|b`,
		"trailing|lone|bs\\",
		"too|few",
		"too|many|fields|here",
		strings.Repeat("y", 40) + "|a|b", // overlong field -> parse error
	}
	scratch := make(Record, len(layout.Fields))
	var sc VartextScratch
	for _, line := range lines {
		want, wantErr := ParseVartextRecord(line, '|', layout)
		gotErr := ParseVartextRecordInto(scratch, line, '|', layout, &sc)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: error mismatch: %v vs %v", line, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Errorf("%q: error text %q vs %q", line, wantErr, gotErr)
			}
			continue
		}
		for f := range want {
			if !want[f].Equal(scratch[f]) {
				t.Errorf("%q field %d: %+v vs %+v", line, f, want[f], scratch[f])
			}
		}
	}
}

// TestNextVartextLineMatchesSplit iterates inputs with every line-ending
// and escape corner and requires NextVartextLine to visit exactly the lines
// SplitVartextLines returns.
func TestNextVartextLineMatchesSplit(t *testing.T) {
	inputs := []string{
		"",
		"a",
		"a\n",
		"a\nb",
		"a\r\nb\r\n",
		"a\\\nb\nc", // escaped newline joins a and b
		"a\\\\\nb",  // even backslash run: newline splits
		"\n\n",      // empty lines
		// The \r stands between the backslash and the newline, so the scan
		// splits this into ["x\\" "y"]. Whether a backslash before \r\n
		// should escape it is ROADMAP V1(a)'s decision.
		"x\\\r\ny\n",
		"last no eol\r", // trailing \r without newline
	}
	for _, in := range inputs {
		want := SplitVartextLines([]byte(in))
		var got []string
		for pos := 0; pos < len(in); {
			line, next, ok := NextVartextLine(in, pos)
			if !ok {
				break
			}
			got = append(got, line)
			pos = next
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d lines vs %d (%q vs %q)", in, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q line %d: %q vs %q", in, i, got[i], want[i])
			}
		}
	}
}

// TestAppendTextAllocFree pins the codec itself to zero allocations when
// the destination has capacity.
func TestAppendTextAllocFree(t *testing.T) {
	v := DateValue(2024, 6, 15)
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = v.AppendText(dst[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendText allocates %.1f per call, want 0", allocs)
	}
}
