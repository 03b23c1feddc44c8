package ltype

import "strconv"

// Append-style codecs for the acquisition hot path (§4-§5). Every function
// here formats into a caller-provided buffer with no intermediate strings
// and no fmt machinery.

const hexDigits = "0123456789ABCDEF"

// AppendText appends the value's legacy client text — exactly the bytes
// Text returns — to dst and returns the extended slice. NULL appends
// nothing.
//
// DECIMAL values append their pre-formatted S text; values produced by
// DecodeRecordInto carry no S (the scale lives in the layout, not the
// value), so hot-path callers must use AppendDecimal with the field's scale
// instead.
func (v Value) AppendText(dst []byte) []byte {
	if v.Null {
		return dst
	}
	switch v.Kind {
	case KindByteInt, KindSmallInt, KindInteger, KindBigInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindDecimal, KindChar, KindVarChar, KindTimestamp:
		return append(dst, v.S...)
	case KindDate:
		y, m, d := DecodeLegacyDate(v.I)
		dst = appendZeroPadded(dst, int64(y), 4)
		dst = append(dst, '-')
		dst = appendZeroPadded(dst, int64(m), 2)
		dst = append(dst, '-')
		return appendZeroPadded(dst, int64(d), 2)
	case KindTime:
		sec := v.I
		dst = appendZeroPadded(dst, sec/3600, 2)
		dst = append(dst, ':')
		dst = appendZeroPadded(dst, (sec/60)%60, 2)
		dst = append(dst, ':')
		return appendZeroPadded(dst, sec%60, 2)
	case KindByte, KindVarByte:
		for _, b := range v.B {
			dst = append(dst, hexDigits[b>>4], hexDigits[b&0xF])
		}
		return dst
	default:
		return dst
	}
}

// AppendDecimal appends the text of an unscaled decimal integer at the
// given scale — exactly the bytes FormatDecimal returns — to dst.
func AppendDecimal(dst []byte, unscaled int64, scale int) []byte {
	if scale <= 0 {
		return strconv.AppendInt(dst, unscaled, 10)
	}
	u := uint64(unscaled)
	if unscaled < 0 {
		dst = append(dst, '-')
		u = uint64(-unscaled) // two's-complement magnitude, MinInt64-safe
	}
	var tmp [20]byte
	s := strconv.AppendUint(tmp[:0], u, 10)
	intLen := len(s) - scale
	if intLen <= 0 {
		dst = append(dst, '0', '.')
		for i := intLen; i < 0; i++ {
			dst = append(dst, '0')
		}
		return append(dst, s...)
	}
	dst = append(dst, s[:intLen]...)
	dst = append(dst, '.')
	return append(dst, s[intLen:]...)
}

// appendZeroPadded appends v in decimal, zero-padded to width total bytes
// including any sign — the semantics of fmt's %0*d verb, hand-rolled so the
// hot path never touches fmt.
func appendZeroPadded(dst []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = uint64(-v)
		width--
	}
	digits := 1
	for x := u; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, u, 10)
}
