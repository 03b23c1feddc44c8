package core

import (
	"testing"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"
)

func TestColTypeToLegacy(t *testing.T) {
	cases := []struct {
		in   cdw.ColType
		want ltype.Kind
	}{
		{cdw.ColType{Kind: cdw.KBool}, ltype.KindByteInt},
		{cdw.ColType{Kind: cdw.KInt}, ltype.KindBigInt},
		{cdw.ColType{Kind: cdw.KFloat}, ltype.KindFloat},
		{cdw.ColType{Kind: cdw.KDecimal, Precision: 10, Scale: 2}, ltype.KindDecimal},
		{cdw.ColType{Kind: cdw.KString, Length: 5}, ltype.KindVarChar},
		{cdw.ColType{Kind: cdw.KDate}, ltype.KindDate},
		{cdw.ColType{Kind: cdw.KTime}, ltype.KindTime},
		{cdw.ColType{Kind: cdw.KTimestamp}, ltype.KindTimestamp},
		{cdw.ColType{Kind: cdw.KBytes, Length: 4}, ltype.KindVarByte},
	}
	for _, c := range cases {
		got := colTypeToLegacy(c.in)
		if got.Kind != c.want {
			t.Errorf("colTypeToLegacy(%v) = %v, want %v", c.in, got.Kind, c.want)
		}
	}
	// unbounded string gets a generous default length
	lt := colTypeToLegacy(cdw.ColType{Kind: cdw.KString})
	if lt.Length <= 0 {
		t.Errorf("unbounded string maps to length %d", lt.Length)
	}
	// national strings keep the unicode charset
	lt = colTypeToLegacy(cdw.ColType{Kind: cdw.KString, Length: 9, National: true})
	if lt.CharSet != ltype.CharSetUnicode {
		t.Errorf("national flag lost: %+v", lt)
	}
}

func TestDatumToLegacyConversions(t *testing.T) {
	// the export-direction format conversion: CDW epoch-days -> legacy int date
	d, err := datumToLegacy(cdw.DateD(2012, 1, 1), ltype.Simple(ltype.KindDate))
	if err != nil {
		t.Fatal(err)
	}
	if d.I != ltype.EncodeLegacyDate(2012, 1, 1) {
		t.Errorf("date encoding: %d", d.I)
	}
	d, err = datumToLegacy(cdw.DecimalD(12345, 2), ltype.Decimal(10, 2))
	if err != nil || d.S != "123.45" {
		t.Errorf("decimal: %+v %v", d, err)
	}
	d, err = datumToLegacy(cdw.BoolD(true), ltype.Simple(ltype.KindByteInt))
	if err != nil || d.I != 1 {
		t.Errorf("bool: %+v %v", d, err)
	}
	d, err = datumToLegacy(cdw.Null(), ltype.VarChar(5))
	if err != nil || !d.Null {
		t.Errorf("null: %+v %v", d, err)
	}
	d, err = datumToLegacy(cdw.TimestampD(0), ltype.Simple(ltype.KindTimestamp))
	if err != nil || d.S != "1970-01-01 00:00:00" {
		t.Errorf("timestamp: %+v %v", d, err)
	}
	// kind mismatch is an error, not silent coercion
	if _, err := datumToLegacy(cdw.StringD("x"), ltype.Simple(ltype.KindDate)); err == nil {
		t.Error("string->date conversion accepted")
	}
}

func TestEncodeRowsLegacyVartextAndIndicator(t *testing.T) {
	cols := []cdwnet.ResultCol{
		{Name: "id", Type: cdw.ColType{Kind: cdw.KInt}},
		{Name: "name", Type: cdw.ColType{Kind: cdw.KString, Length: 20}},
	}
	layout := layoutFromCols("r", cols)
	rows := [][]cdw.Datum{
		{cdw.IntD(1), cdw.StringD("alpha")},
		{cdw.IntD(2), cdw.Null()},
	}
	// vartext
	out, err := encodeRowsLegacy(rows, layout, wire.FormatVartext, '|')
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1|alpha\n2|\n" {
		t.Errorf("vartext: %q", out)
	}
	// indicator: must decode back
	out, err = encodeRowsLegacy(rows, layout, wire.FormatIndicator, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, n, err := ltype.DecodeRecord(out, layout)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0].I != 1 || rec[1].S != "alpha" {
		t.Errorf("record 0: %+v", rec)
	}
	rec, _, err = ltype.DecodeRecord(out[n:], layout)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0].I != 2 || !rec[1].Null {
		t.Errorf("record 1: %+v", rec)
	}
	// arity mismatch
	if _, err := encodeRowsLegacy([][]cdw.Datum{{cdw.IntD(1)}}, layout, 0, 0); err == nil {
		t.Error("arity mismatch accepted")
	}
}
