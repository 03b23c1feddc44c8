package ltype

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func custLayout() *Layout {
	return &Layout{Name: "CustLayout", Fields: []Field{
		{Name: "CUST_ID", Type: VarChar(5)},
		{Name: "CUST_NAME", Type: VarChar(50)},
		{Name: "JOIN_DATE", Type: VarChar(10)},
	}}
}

func wideLayout() *Layout {
	return &Layout{Name: "Wide", Fields: []Field{
		{Name: "F1", Type: Simple(KindByteInt)},
		{Name: "F2", Type: Simple(KindSmallInt)},
		{Name: "F3", Type: Simple(KindInteger)},
		{Name: "F4", Type: Simple(KindBigInt)},
		{Name: "F5", Type: Simple(KindFloat)},
		{Name: "F6", Type: Decimal(10, 2)},
		{Name: "F7", Type: Char(4)},
		{Name: "F8", Type: VarChar(20)},
		{Name: "F9", Type: Simple(KindDate)},
		{Name: "F10", Type: Simple(KindTime)},
		{Name: "F11", Type: Simple(KindTimestamp)},
		{Name: "F12", Type: Type{Kind: KindByte, Length: 3}},
		{Name: "F13", Type: Type{Kind: KindVarByte, Length: 10}},
	}}
}

func wideRecord() Record {
	dec := IntValue(KindDecimal, 12345)
	dec.S = FormatDecimal(12345, 2)
	return Record{
		IntValue(KindByteInt, -5),
		IntValue(KindSmallInt, 1234),
		IntValue(KindInteger, -99999),
		IntValue(KindBigInt, 1<<40),
		FloatValue(3.25),
		dec,
		StringValue(KindChar, "ab"),
		StringValue(KindVarChar, "hello world"),
		IntValue(KindDate, EncodeLegacyDate(2023, 6, 30)),
		IntValue(KindTime, 12*3600),
		StringValue(KindTimestamp, "2023-06-30 12:00:00"),
		BytesValue(KindByte, []byte{1, 2, 3}),
		BytesValue(KindVarByte, []byte{9, 8}),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	layout := wideLayout()
	rec := wideRecord()
	buf, err := EncodeRecord(nil, layout, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRecord(buf, layout)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	for i := range rec {
		if !got[i].Equal(rec[i]) {
			t.Errorf("field %d: got %+v, want %+v", i, got[i], rec[i])
		}
	}
}

func TestEncodeDecodeNulls(t *testing.T) {
	layout := wideLayout()
	rec := make(Record, len(layout.Fields))
	for i, f := range layout.Fields {
		rec[i] = NullValue(f.Type.Kind)
	}
	buf, err := EncodeRecord(nil, layout, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRecord(buf, layout)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Null {
			t.Errorf("field %d: want NULL, got %+v", i, got[i])
		}
		if got[i].Kind != layout.Fields[i].Type.Kind {
			t.Errorf("field %d: kind %v, want %v", i, got[i].Kind, layout.Fields[i].Type.Kind)
		}
	}
}

func TestEncodeRecordMismatch(t *testing.T) {
	layout := custLayout()
	if _, err := EncodeRecord(nil, layout, Record{StringValue(KindVarChar, "x")}); err == nil {
		t.Error("field-count mismatch accepted")
	}
	// wrong kind
	rec := Record{IntValue(KindInteger, 1), StringValue(KindVarChar, "a"), StringValue(KindVarChar, "b")}
	if _, err := EncodeRecord(nil, layout, rec); err == nil {
		t.Error("kind mismatch accepted")
	}
	// overlong varchar
	rec = Record{StringValue(KindVarChar, "toolong"), StringValue(KindVarChar, "a"), StringValue(KindVarChar, "b")}
	if _, err := EncodeRecord(nil, layout, rec); err == nil {
		t.Error("overlong VARCHAR accepted")
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	layout := custLayout()
	rec := Record{
		StringValue(KindVarChar, "123"),
		StringValue(KindVarChar, "Smith"),
		StringValue(KindVarChar, "2012-01-01"),
	}
	buf, err := EncodeRecord(nil, layout, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRecord(buf[:1], layout); err == nil {
		t.Error("truncated length prefix accepted")
	}
	if _, _, err := DecodeRecord(buf[:len(buf)-2], layout); err == nil {
		t.Error("truncated record accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] = 0xFF
	if _, _, err := DecodeRecord(bad, layout); err == nil {
		t.Error("bad terminator accepted")
	}
	if _, _, err := DecodeRecord(nil, layout); err == nil {
		t.Error("empty buffer accepted")
	}
}

// TestNextRecord: NextRecord splits a chunk payload into its records and
// refuses a record cut short; the terminator is DecodeRecordInto's check.
func TestNextRecord(t *testing.T) {
	layout := custLayout()
	var buf []byte
	var err error
	for i := 0; i < 7; i++ {
		buf, err = EncodeRecord(buf, layout, Record{
			StringValue(KindVarChar, "id"),
			StringValue(KindVarChar, "name"),
			NullValue(KindVarChar),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for rest := buf; len(rest) > 0; n++ {
		rec, r, ok := NextRecord(rest)
		if !ok {
			t.Fatalf("record %d: not split", n)
		}
		if _, err := DecodeRecordInto(make(Record, 3), string(rec), layout); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		rest = r
	}
	if n != 7 {
		t.Errorf("split %d records, want 7", n)
	}
	for _, short := range [][]byte{nil, {0}, buf[:len(buf)/7-1]} {
		if rec, rest, ok := NextRecord(short); ok || rec != nil || len(rest) != len(short) {
			t.Errorf("NextRecord(%x) = %x, %x, %v; want a refusal", short, rec, rest, ok)
		}
	}
	// The terminator is DecodeRecordInto's check, not NextRecord's.
	bad := append([]byte(nil), buf[:len(buf)/7]...)
	bad[len(bad)-1] = 'X'
	if rec, _, ok := NextRecord(bad); !ok || len(rec) != len(bad) {
		t.Errorf("record with a bad terminator: split %x, %v", rec, ok)
	} else if _, err := DecodeRecordInto(make(Record, 3), string(rec), layout); err == nil {
		t.Error("record with a bad terminator decoded")
	}
}

func TestMultipleRecordsSequential(t *testing.T) {
	layout := custLayout()
	recs := []Record{
		{StringValue(KindVarChar, "1"), StringValue(KindVarChar, "a"), StringValue(KindVarChar, "x")},
		{NullValue(KindVarChar), StringValue(KindVarChar, "b"), NullValue(KindVarChar)},
		{StringValue(KindVarChar, "3"), NullValue(KindVarChar), StringValue(KindVarChar, "z")},
	}
	var buf []byte
	var err error
	for _, r := range recs {
		buf, err = EncodeRecord(buf, layout, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(buf) > 0; i++ {
		got, n, err := DecodeRecord(buf, layout)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if !got[j].Equal(recs[i][j]) {
				t.Errorf("record %d field %d: got %+v want %+v", i, j, got[j], recs[i][j])
			}
		}
		buf = buf[n:]
	}
}

// randomRecord builds a random record for the layout using r.
func randomRecord(r *rand.Rand, layout *Layout) Record {
	rec := make(Record, len(layout.Fields))
	for i, f := range layout.Fields {
		if r.Intn(5) == 0 {
			rec[i] = NullValue(f.Type.Kind)
			continue
		}
		switch f.Type.Kind {
		case KindByteInt:
			rec[i] = IntValue(f.Type.Kind, int64(int8(r.Int())))
		case KindSmallInt:
			rec[i] = IntValue(f.Type.Kind, int64(int16(r.Int())))
		case KindInteger:
			rec[i] = IntValue(f.Type.Kind, int64(int32(r.Int())))
		case KindBigInt:
			rec[i] = IntValue(f.Type.Kind, int64(r.Uint64()))
		case KindFloat:
			rec[i] = FloatValue(r.NormFloat64() * 1000)
		case KindDecimal:
			maxAbs := pow10(f.Type.Precision) - 1
			u := r.Int63n(maxAbs*2+1) - maxAbs
			v := IntValue(KindDecimal, u)
			v.S = FormatDecimal(u, f.Type.Scale)
			rec[i] = v
		case KindChar:
			rec[i] = StringValue(KindChar, randString(r, r.Intn(f.Type.Length)+1, false))
		case KindVarChar:
			rec[i] = StringValue(KindVarChar, randString(r, r.Intn(f.Type.Length+1), true))
		case KindDate:
			rec[i] = DateValue(1950+r.Intn(150), 1+r.Intn(12), 1+r.Intn(28))
		case KindTime:
			rec[i] = IntValue(KindTime, int64(r.Intn(86400)))
		case KindTimestamp:
			rec[i] = StringValue(KindTimestamp, "2023-01-02 03:04:05")
		case KindByte:
			b := make([]byte, f.Type.Length)
			r.Read(b)
			rec[i] = BytesValue(KindByte, b)
		case KindVarByte:
			b := make([]byte, r.Intn(f.Type.Length+1))
			r.Read(b)
			rec[i] = BytesValue(KindVarByte, b)
		}
	}
	return rec
}

func randString(r *rand.Rand, n int, allowTrailingSpace bool) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 |\\,'\""
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	s := string(b)
	// CHAR decoding trims trailing spaces, so avoid them for exact round trips.
	if !allowTrailingSpace {
		for len(s) > 0 && s[len(s)-1] == ' ' {
			s = s[:len(s)-1] + "x"
		}
		if s == "" {
			s = "x"
		}
	}
	return s
}

func TestPropertyRecordRoundTrip(t *testing.T) {
	layout := wideLayout()
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rec := randomRecord(rr, layout)
		buf, err := EncodeRecord(nil, layout, rec)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, n, err := DecodeRecord(buf, layout)
		if err != nil || n != len(buf) {
			t.Logf("decode: %v n=%d len=%d", err, n, len(buf))
			return false
		}
		for i := range rec {
			if !got[i].Equal(rec[i]) {
				t.Logf("field %d mismatch: got %+v want %+v", i, got[i], rec[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecimalRoundTrip(t *testing.T) {
	f := func(u int64, scaleRaw uint8) bool {
		scale := int(scaleRaw % 7)
		u %= 1_000_000_000_000 // keep within 18 digits
		s := FormatDecimal(u, scale)
		back, err := ParseDecimal(s, 18, scale)
		return err == nil && back == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLegacyDateRoundTrip(t *testing.T) {
	f := func(yRaw, mRaw, dRaw uint16) bool {
		y := 1900 + int(yRaw%300)
		m := 1 + int(mRaw%12)
		d := 1 + int(dRaw%28)
		enc := EncodeLegacyDate(y, m, d)
		gy, gm, gd := DecodeLegacyDate(enc)
		return gy == y && gm == m && gd == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecials(t *testing.T) {
	layout := &Layout{Name: "F", Fields: []Field{{Name: "X", Type: Simple(KindFloat)}}}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)} {
		buf, err := EncodeRecord(nil, layout, Record{FloatValue(f)})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeRecord(buf, layout)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Equal(FloatValue(f)) {
			t.Errorf("float %v did not round trip: %+v", f, got[0])
		}
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	layout := wideLayout()
	rec := wideRecord()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeRecord(buf[:0], layout, rec)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	layout := wideLayout()
	buf, err := EncodeRecord(nil, layout, wideRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(buf, layout); err != nil {
			b.Fatal(err)
		}
	}
}
