package ltype

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// RecordTerminator ends every indicator-mode record on the wire. The legacy
// client uses it as a framing sanity check.
const RecordTerminator = 0x0A

// Record is one row of values matching a Layout.
type Record []Value

// EncodeRecord appends the indicator-mode binary encoding of rec to dst and
// returns the extended slice. Like every other wire format in the system
// (DWP parcel headers, TDF packets), records are network byte order end to
// end — the endian invariant etlvirtlint enforces. The format is:
//
//	uint16 BE  payload length (indicators + field bytes)
//	indicator bitmap, ceil(nfields/8) bytes, MSB-first, bit set = NULL
//	field values in layout order (NULL fields still occupy their fixed
//	width with zero bytes; variable-length NULL fields encode length 0)
//	terminator byte 0x0A
func EncodeRecord(dst []byte, layout *Layout, rec Record) ([]byte, error) {
	if len(rec) != len(layout.Fields) {
		return dst, fmt.Errorf("ltype: record has %d values, layout %q has %d fields",
			len(rec), layout.Name, len(layout.Fields))
	}
	lenPos := len(dst)
	dst = append(dst, 0, 0) // payload length placeholder
	start := len(dst)

	nInd := (len(layout.Fields) + 7) / 8
	indPos := len(dst)
	for i := 0; i < nInd; i++ {
		dst = append(dst, 0)
	}
	for i, f := range layout.Fields {
		v := rec[i]
		if v.Null {
			dst[indPos+i/8] |= 0x80 >> (i % 8)
		}
		var err error
		dst, err = encodeValue(dst, f.Type, v)
		if err != nil {
			return dst, fmt.Errorf("ltype: field %q: %w", f.Name, err)
		}
	}
	payload := len(dst) - start
	if payload > math.MaxUint16 {
		return dst, fmt.Errorf("ltype: record payload %d exceeds 64KB", payload)
	}
	binary.BigEndian.PutUint16(dst[lenPos:], uint16(payload))
	dst = append(dst, RecordTerminator)
	return dst, nil
}

func encodeValue(dst []byte, t Type, v Value) ([]byte, error) {
	if !v.Null && v.Kind != t.Kind {
		return dst, fmt.Errorf("value kind %s does not match field type %s", v.Kind, t.Kind)
	}
	switch t.Kind {
	case KindByteInt:
		return append(dst, byte(int8(v.I))), nil
	case KindSmallInt:
		return binary.BigEndian.AppendUint16(dst, uint16(int16(v.I))), nil
	case KindInteger, KindDate:
		return binary.BigEndian.AppendUint32(dst, uint32(int32(v.I))), nil
	case KindTime:
		return binary.BigEndian.AppendUint32(dst, uint32(int32(v.I))), nil
	case KindBigInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.I)), nil
	case KindFloat:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F)), nil
	case KindDecimal:
		sz := DecimalWireSize(t.Precision)
		u := uint64(v.I)
		for i := 0; i < sz; i++ {
			dst = append(dst, byte(u>>(8*i)))
		}
		return dst, nil
	case KindChar:
		s := v.S
		if v.Null {
			s = ""
		}
		if len(s) > t.Length {
			return dst, fmt.Errorf("CHAR value of %d bytes exceeds length %d", len(s), t.Length)
		}
		dst = append(dst, s...)
		for i := len(s); i < t.Length; i++ {
			dst = append(dst, ' ')
		}
		return dst, nil
	case KindTimestamp:
		s := v.S
		if v.Null {
			s = ""
		}
		if len(s) > TimestampWidth {
			return dst, fmt.Errorf("TIMESTAMP value of %d bytes exceeds width %d", len(s), TimestampWidth)
		}
		dst = append(dst, s...)
		for i := len(s); i < TimestampWidth; i++ {
			dst = append(dst, ' ')
		}
		return dst, nil
	case KindVarChar:
		s := v.S
		if v.Null {
			s = ""
		}
		if len(s) > t.Length {
			return dst, fmt.Errorf("VARCHAR value of %d bytes exceeds length %d", len(s), t.Length)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		return append(dst, s...), nil
	case KindByte:
		b := v.B
		if v.Null {
			b = nil
		}
		if len(b) > t.Length {
			return dst, fmt.Errorf("BYTE value of %d bytes exceeds length %d", len(b), t.Length)
		}
		dst = append(dst, b...)
		for i := len(b); i < t.Length; i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	case KindVarByte:
		b := v.B
		if v.Null {
			b = nil
		}
		if len(b) > t.Length {
			return dst, fmt.Errorf("VARBYTE value of %d bytes exceeds length %d", len(b), t.Length)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
		return append(dst, b...), nil
	default:
		return dst, fmt.Errorf("cannot encode kind %s", t.Kind)
	}
}

// DecodeRecord decodes one indicator-mode record from buf, returning the
// record and the number of bytes consumed. It returns an error if buf does
// not start with a complete, well-formed record. Hot-path callers use
// DecodeRecordInto, which reuses a caller-provided scratch record.
func DecodeRecord(buf []byte, layout *Layout) (Record, int, error) {
	// One copy of just this record's bytes: the decoded string values alias
	// the immutable copy, so the returned record is safe regardless of what
	// the caller later does with buf. A short buf is copied whole, for
	// DecodeRecordInto to report.
	if r, _, ok := NextRecord(buf); ok {
		buf = r
	}
	rec := make(Record, len(layout.Fields))
	n, err := DecodeRecordInto(rec, string(buf), layout)
	if err != nil {
		return nil, 0, err
	}
	// DecodeRecordInto leaves DECIMAL text unformatted; this compatibility
	// API promises it eagerly.
	for i, f := range layout.Fields {
		if f.Type.Kind == KindDecimal && !rec[i].Null {
			rec[i].S = FormatDecimal(rec[i].I, f.Type.Scale)
		}
	}
	return rec, n, nil
}

// NextRecord splits the first indicator-mode record, with its length prefix
// and terminator byte, off the front of buf. ok is false when buf cannot
// hold the record its prefix announces. It does not check the terminator;
// DecodeRecordInto does.
func NextRecord(buf []byte) (rec, rest []byte, ok bool) {
	if len(buf) < 2 {
		return nil, buf, false
	}
	n := 2 + int(binary.BigEndian.Uint16(buf)) + 1
	if len(buf) < n {
		return nil, buf, false
	}
	return buf[:n], buf[n:], true
}

// DecodeRecordInto decodes one indicator-mode record from the front of buf
// into rec, which must have exactly len(layout.Fields) values, and returns
// the number of bytes consumed. It is the allocation-free core of
// DecodeRecord: string-kinded values alias buf's memory (buf being a string
// guarantees they stay immutable), binary-kinded values reuse rec's
// existing B capacity, and DECIMAL values carry only the unscaled integer
// in I — their S text is NOT materialized; use AppendDecimal with the
// field's scale to render them. The caller owns rec and must consume or
// copy its values before the next DecodeRecordInto call on the same rec.
func DecodeRecordInto(rec Record, buf string, layout *Layout) (int, error) {
	if len(rec) != len(layout.Fields) {
		return 0, errScratchSize(len(rec), layout)
	}
	if len(buf) < 2 {
		return 0, errMissingLenPrefix()
	}
	payload := int(beU16(buf))
	total := 2 + payload + 1
	if len(buf) < total {
		return 0, errTruncatedRecord(total, len(buf))
	}
	if buf[total-1] != RecordTerminator {
		return 0, errMissingTerminator()
	}
	p := buf[2 : 2+payload]
	nInd := (len(layout.Fields) + 7) / 8
	if len(p) < nInd {
		return 0, errShortIndicators()
	}
	ind := p[:nInd]
	p = p[nInd:]
	for i := range layout.Fields {
		null := ind[i/8]&(0x80>>(i%8)) != 0
		n, err := decodeValueInto(&rec[i], p, layout.Fields[i].Type, null)
		if err != nil {
			return 0, errField(layout.Fields[i].Name, err)
		}
		p = p[n:]
	}
	if len(p) != 0 {
		return 0, errTrailingBytes(len(p))
	}
	return total, nil
}

// reset prepares a scratch value for a freshly decoded field: every payload
// slot is cleared but the B capacity survives, so binary fields recycle
// their backing array across rows.
func (v *Value) reset(k Kind, null bool) {
	v.Kind, v.Null, v.I, v.F, v.S = k, null, 0, 0, ""
	v.B = v.B[:0]
}

// decodeValueInto decodes one field value from the front of p into v and
// returns the number of payload bytes consumed. NULL fields still consume
// their wire bytes but leave v a NULL of the field's kind.
func decodeValueInto(v *Value, p string, t Type, null bool) (int, error) {
	v.reset(t.Kind, null)
	switch t.Kind {
	case KindByteInt:
		if len(p) < 1 {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.I = int64(int8(p[0]))
		}
		return 1, nil
	case KindSmallInt:
		if len(p) < 2 {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.I = int64(int16(beU16(p)))
		}
		return 2, nil
	case KindInteger, KindDate, KindTime:
		if len(p) < 4 {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.I = int64(int32(beU32(p)))
		}
		return 4, nil
	case KindBigInt:
		if len(p) < 8 {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.I = int64(beU64(p))
		}
		return 8, nil
	case KindFloat:
		if len(p) < 8 {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.F = math.Float64frombits(beU64(p))
		}
		return 8, nil
	case KindDecimal:
		sz := DecimalWireSize(t.Precision)
		if len(p) < sz {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			var u uint64
			for i := sz - 1; i >= 0; i-- {
				u = u<<8 | uint64(p[i])
			}
			// sign-extend; S stays empty — see DecodeRecordInto
			shift := uint(64 - 8*sz)
			v.I = int64(u<<shift) >> shift
		}
		return sz, nil
	case KindChar:
		if len(p) < t.Length {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.S = strings.TrimRight(p[:t.Length], " ")
		}
		return t.Length, nil
	case KindTimestamp:
		if len(p) < TimestampWidth {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.S = strings.TrimRight(p[:TimestampWidth], " ")
		}
		return TimestampWidth, nil
	case KindVarChar:
		if len(p) < 2 {
			return 0, errTruncatedValue(t.Kind)
		}
		n := int(beU16(p))
		if len(p) < 2+n {
			return 0, errTruncatedValue(t.Kind)
		}
		if n > t.Length {
			return 0, errVarLength("VARCHAR", n, t.Length)
		}
		if !null {
			v.S = p[2 : 2+n]
		}
		return 2 + n, nil
	case KindByte:
		if len(p) < t.Length {
			return 0, errTruncatedValue(t.Kind)
		}
		if !null {
			v.B = append(v.B, p[:t.Length]...)
		}
		return t.Length, nil
	case KindVarByte:
		if len(p) < 2 {
			return 0, errTruncatedValue(t.Kind)
		}
		n := int(beU16(p))
		if len(p) < 2+n {
			return 0, errTruncatedValue(t.Kind)
		}
		if n > t.Length {
			return 0, errVarLength("VARBYTE", n, t.Length)
		}
		if !null {
			v.B = append(v.B, p[2:2+n]...)
		}
		return 2 + n, nil
	default:
		return 0, errBadKind(t.Kind)
	}
}

// Big-endian loads from a string, the wire byte order everywhere in the
// system (see EncodeRecord). encoding/binary only reads []byte; these keep
// the string-aliasing decode path off the allocator.

func beU16(s string) uint16 { return uint16(s[0])<<8 | uint16(s[1]) }

func beU32(s string) uint32 {
	return uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
}

func beU64(s string) uint64 { return uint64(beU32(s))<<32 | uint64(beU32(s[4:])) }

// Cold error constructors: message formatting lives here, off the hot
// decode functions above.

func errScratchSize(n int, layout *Layout) error {
	return fmt.Errorf("ltype: scratch record has %d values, layout %q has %d fields",
		n, layout.Name, len(layout.Fields))
}

func errMissingLenPrefix() error {
	return fmt.Errorf("ltype: truncated record: missing length prefix")
}

func errTruncatedRecord(need, have int) error {
	return fmt.Errorf("ltype: truncated record: need %d bytes, have %d", need, have)
}

func errMissingTerminator() error { return fmt.Errorf("ltype: record missing terminator") }

func errShortIndicators() error { return fmt.Errorf("ltype: record too short for indicator bytes") }

func errField(name string, err error) error { return fmt.Errorf("ltype: field %q: %w", name, err) }

func errTrailingBytes(n int) error {
	return fmt.Errorf("ltype: %d trailing bytes in record payload", n)
}

func errTruncatedValue(k Kind) error { return fmt.Errorf("truncated %s value", k) }

func errVarLength(what string, n, max int) error {
	return fmt.Errorf("%s length %d exceeds declared %d", what, n, max)
}

func errBadKind(k Kind) error { return fmt.Errorf("cannot decode kind %s", k) }
