package core

import (
	"fmt"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"
)

// colTypeToLegacy maps a CDW result column type to the legacy type used when
// re-encoding result rows for the legacy client (export jobs and RunSQL
// result sets).
func colTypeToLegacy(t cdw.ColType) ltype.Type {
	switch t.Kind {
	case cdw.KBool:
		return ltype.Simple(ltype.KindByteInt)
	case cdw.KInt:
		return ltype.Simple(ltype.KindBigInt)
	case cdw.KFloat:
		return ltype.Simple(ltype.KindFloat)
	case cdw.KDecimal:
		return ltype.Decimal(t.Precision, t.Scale)
	case cdw.KString:
		n := t.Length
		if n <= 0 {
			n = 4000
		}
		lt := ltype.VarChar(n)
		if t.National {
			lt.CharSet = ltype.CharSetUnicode
		}
		return lt
	case cdw.KDate:
		return ltype.Simple(ltype.KindDate)
	case cdw.KTime:
		return ltype.Simple(ltype.KindTime)
	case cdw.KTimestamp:
		return ltype.Simple(ltype.KindTimestamp)
	case cdw.KBytes:
		n := t.Length
		if n <= 0 {
			n = 4000
		}
		return ltype.Type{Kind: ltype.KindVarByte, Length: n}
	default:
		return ltype.VarChar(4000)
	}
}

// layoutFromCols builds the legacy layout announced to the client for a
// result set.
func layoutFromCols(name string, cols []cdwnet.ResultCol) *ltype.Layout {
	l := &ltype.Layout{Name: name}
	for _, c := range cols {
		l.Fields = append(l.Fields, ltype.Field{Name: c.Name, Type: colTypeToLegacy(c.Type)})
	}
	return l
}

// datumToLegacy converts one CDW datum into the legacy value for field type
// lt. This is the export-direction format conversion of §4: epoch-day dates
// become the legacy integer encoding, timestamps become fixed-width text,
// and so on.
func datumToLegacy(d cdw.Datum, lt ltype.Type) (ltype.Value, error) {
	if d.IsNull() {
		return ltype.NullValue(lt.Kind), nil
	}
	switch lt.Kind {
	case ltype.KindByteInt, ltype.KindSmallInt, ltype.KindInteger, ltype.KindBigInt:
		switch d.Kind {
		case cdw.KInt:
			return ltype.IntValue(lt.Kind, d.I), nil
		case cdw.KBool:
			if d.Bool {
				return ltype.IntValue(lt.Kind, 1), nil
			}
			return ltype.IntValue(lt.Kind, 0), nil
		}
	case ltype.KindFloat:
		if d.Kind == cdw.KFloat {
			return ltype.FloatValue(d.F), nil
		}
	case ltype.KindDecimal:
		if d.Kind == cdw.KDecimal {
			v := ltype.IntValue(ltype.KindDecimal, d.I)
			v.S = ltype.FormatDecimal(d.I, int(d.Scale))
			return v, nil
		}
	case ltype.KindChar, ltype.KindVarChar:
		return ltype.StringValue(lt.Kind, d.Render()), nil
	case ltype.KindDate:
		if d.Kind == cdw.KDate {
			t := time.Unix(d.I*86400, 0).UTC()
			return ltype.DateValue(t.Year(), int(t.Month()), t.Day()), nil
		}
	case ltype.KindTime:
		if d.Kind == cdw.KTime {
			return ltype.IntValue(ltype.KindTime, d.I), nil
		}
	case ltype.KindTimestamp:
		if d.Kind == cdw.KTimestamp {
			s := time.UnixMicro(d.I).UTC().Format("2006-01-02 15:04:05")
			return ltype.StringValue(ltype.KindTimestamp, s), nil
		}
	case ltype.KindByte, ltype.KindVarByte:
		if d.Kind == cdw.KBytes {
			return ltype.BytesValue(lt.Kind, d.B), nil
		}
	}
	return ltype.Value{}, fmt.Errorf("core: cannot convert CDW %s to legacy %s", d.Kind, lt.Kind)
}

// encodeRowsLegacy encodes CDW rows into a legacy record payload in the
// requested format.
func encodeRowsLegacy(rows [][]cdw.Datum, layout *ltype.Layout, format wire.DataFormat, delim byte) ([]byte, error) {
	var out []byte
	for _, row := range rows {
		if len(row) != len(layout.Fields) {
			return nil, fmt.Errorf("core: row has %d values, layout %d fields", len(row), len(layout.Fields))
		}
		rec := make(ltype.Record, len(row))
		for i, d := range row {
			v, err := datumToLegacy(d, layout.Fields[i].Type)
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		if format == wire.FormatVartext {
			fields := make([]string, len(rec))
			for i, v := range rec {
				fields[i] = v.Text()
			}
			out = ltype.AppendVartext(out, fields, delim)
		} else {
			var err error
			out, err = ltype.EncodeRecord(out, layout, rec)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
