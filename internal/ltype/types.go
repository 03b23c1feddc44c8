// Package ltype implements the legacy EDW type system and the on-the-wire
// record encodings used by legacy ETL clients: the indicator-mode binary
// record format and the delimiter-separated "vartext" format.
//
// The type system models a Teradata-style legacy warehouse: fixed- and
// variable-length character types with LATIN/UNICODE character sets, exact
// numerics including scaled DECIMALs, approximate FLOATs, and the legacy
// integer DATE encoding ((year-1900)*10000 + month*100 + day).
package ltype

import (
	"fmt"
	"strings"
)

// Kind identifies a legacy data type.
type Kind uint8

// Legacy type kinds. The numeric values are part of the wire protocol
// (layout definitions are transmitted with these codes) and must not change.
const (
	KindInvalid   Kind = 0
	KindByteInt   Kind = 1  // 1-byte signed integer
	KindSmallInt  Kind = 2  // 2-byte signed integer
	KindInteger   Kind = 3  // 4-byte signed integer
	KindBigInt    Kind = 4  // 8-byte signed integer
	KindFloat     Kind = 5  // 8-byte IEEE-754 double
	KindDecimal   Kind = 6  // exact numeric, scaled integer representation
	KindChar      Kind = 7  // fixed-length character, space padded
	KindVarChar   Kind = 8  // variable-length character
	KindDate      Kind = 9  // legacy integer date
	KindTime      Kind = 10 // seconds since midnight, 4-byte
	KindTimestamp Kind = 11 // fixed-width character timestamp 'YYYY-MM-DD HH:MM:SS'
	KindByte      Kind = 12 // fixed-length binary
	KindVarByte   Kind = 13 // variable-length binary
)

// String returns the legacy DDL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindByteInt:
		return "BYTEINT"
	case KindSmallInt:
		return "SMALLINT"
	case KindInteger:
		return "INTEGER"
	case KindBigInt:
		return "BIGINT"
	case KindFloat:
		return "FLOAT"
	case KindDecimal:
		return "DECIMAL"
	case KindChar:
		return "CHAR"
	case KindVarChar:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindTime:
		return "TIME"
	case KindTimestamp:
		return "TIMESTAMP"
	case KindByte:
		return "BYTE"
	case KindVarByte:
		return "VARBYTE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CharSet identifies the character set of a character-typed field.
type CharSet uint8

// Character sets supported by the legacy system.
const (
	CharSetLatin   CharSet = 0 // single-byte Latin
	CharSetUnicode CharSet = 1 // UTF-8 transport encoding of UNICODE columns
)

// String returns the legacy spelling of the character set.
func (c CharSet) String() string {
	if c == CharSetUnicode {
		return "UNICODE"
	}
	return "LATIN"
}

// Type is a fully-resolved legacy type: a kind plus its length and, for
// decimals, precision and scale.
type Type struct {
	Kind      Kind
	Length    int     // CHAR/VARCHAR/BYTE/VARBYTE length in bytes
	Precision int     // DECIMAL total digits (1..18)
	Scale     int     // DECIMAL fraction digits (0..Precision)
	CharSet   CharSet // character types only
}

// Char returns a CHAR(n) type.
func Char(n int) Type { return Type{Kind: KindChar, Length: n} }

// VarChar returns a VARCHAR(n) type.
func VarChar(n int) Type { return Type{Kind: KindVarChar, Length: n} }

// Decimal returns a DECIMAL(p,s) type.
func Decimal(p, s int) Type { return Type{Kind: KindDecimal, Precision: p, Scale: s} }

// Simple returns a type with the given kind and no parameters.
func Simple(k Kind) Type { return Type{Kind: k} }

// String returns the legacy DDL spelling of the type.
func (t Type) String() string {
	switch t.Kind {
	case KindChar, KindVarChar:
		s := fmt.Sprintf("%s(%d)", t.Kind, t.Length)
		if t.CharSet == CharSetUnicode {
			s += " CHARACTER SET UNICODE"
		}
		return s
	case KindByte, KindVarByte:
		return fmt.Sprintf("%s(%d)", t.Kind, t.Length)
	case KindDecimal:
		return fmt.Sprintf("DECIMAL(%d,%d)", t.Precision, t.Scale)
	default:
		return t.Kind.String()
	}
}

// FixedWireSize reports the number of payload bytes the type occupies in an
// indicator-mode record, excluding any length prefix, and whether the size is
// fixed. Variable-length types return (0, false).
func (t Type) FixedWireSize() (int, bool) {
	switch t.Kind {
	case KindByteInt:
		return 1, true
	case KindSmallInt:
		return 2, true
	case KindInteger, KindDate, KindTime:
		return 4, true
	case KindBigInt, KindFloat:
		return 8, true
	case KindDecimal:
		return DecimalWireSize(t.Precision), true
	case KindChar, KindByte:
		return t.Length, true
	case KindTimestamp:
		return TimestampWidth, true
	default:
		return 0, false
	}
}

// TimestampWidth is the fixed character width of a legacy TIMESTAMP(0)
// value: 'YYYY-MM-DD HH:MM:SS'.
const TimestampWidth = 19

// DecimalWireSize returns the storage size in bytes for a DECIMAL of the
// given precision, mirroring the legacy system's tiered representation.
func DecimalWireSize(precision int) int {
	switch {
	case precision <= 2:
		return 1
	case precision <= 4:
		return 2
	case precision <= 9:
		return 4
	default:
		return 8
	}
}

// Validate reports whether the type parameters are in range.
func (t Type) Validate() error {
	switch t.Kind {
	case KindChar, KindVarChar, KindByte, KindVarByte:
		if t.Length <= 0 || t.Length > 64000 {
			return fmt.Errorf("ltype: %s length %d out of range [1,64000]", t.Kind, t.Length)
		}
	case KindDecimal:
		if t.Precision < 1 || t.Precision > 18 {
			return fmt.Errorf("ltype: DECIMAL precision %d out of range [1,18]", t.Precision)
		}
		if t.Scale < 0 || t.Scale > t.Precision {
			return fmt.Errorf("ltype: DECIMAL scale %d out of range [0,%d]", t.Scale, t.Precision)
		}
	case KindByteInt, KindSmallInt, KindInteger, KindBigInt, KindFloat,
		KindDate, KindTime, KindTimestamp:
		// no parameters
	default:
		return fmt.Errorf("ltype: invalid kind %d", t.Kind)
	}
	return nil
}

// ParseTypeName parses a legacy DDL type spelling such as "VARCHAR(5)",
// "DECIMAL(10,2)" or "CHAR(8) CHARACTER SET UNICODE". It is used by the ETL
// script parser for .field declarations.
func ParseTypeName(s string) (Type, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	unicode := false
	if i := strings.Index(u, "CHARACTER SET UNICODE"); i >= 0 {
		unicode = true
		u = strings.TrimSpace(u[:i])
	} else if i := strings.Index(u, "CHARACTER SET LATIN"); i >= 0 {
		u = strings.TrimSpace(u[:i])
	}
	name := u
	var args []int
	if i := strings.IndexByte(u, '('); i >= 0 {
		j := strings.IndexByte(u, ')')
		if j < i {
			return Type{}, fmt.Errorf("ltype: malformed type %q", s)
		}
		name = strings.TrimSpace(u[:i])
		for _, part := range strings.Split(u[i+1:j], ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
				return Type{}, fmt.Errorf("ltype: malformed type argument in %q", s)
			}
			args = append(args, n)
		}
	}
	var t Type
	switch name {
	case "BYTEINT":
		t = Simple(KindByteInt)
	case "SMALLINT":
		t = Simple(KindSmallInt)
	case "INTEGER", "INT":
		t = Simple(KindInteger)
	case "BIGINT":
		t = Simple(KindBigInt)
	case "FLOAT", "DOUBLE PRECISION", "REAL":
		t = Simple(KindFloat)
	case "DATE":
		t = Simple(KindDate)
	case "TIME":
		t = Simple(KindTime)
	case "TIMESTAMP":
		t = Simple(KindTimestamp)
	case "DECIMAL", "NUMERIC", "DEC":
		if len(args) == 0 {
			t = Decimal(5, 0)
		} else if len(args) == 1 {
			t = Decimal(args[0], 0)
		} else {
			t = Decimal(args[0], args[1])
		}
	case "CHAR", "CHARACTER":
		n := 1
		if len(args) > 0 {
			n = args[0]
		}
		t = Char(n)
	case "VARCHAR", "CHARACTER VARYING", "CHAR VARYING":
		if len(args) == 0 {
			return Type{}, fmt.Errorf("ltype: VARCHAR requires a length in %q", s)
		}
		t = VarChar(args[0])
	case "BYTE":
		n := 1
		if len(args) > 0 {
			n = args[0]
		}
		t = Type{Kind: KindByte, Length: n}
	case "VARBYTE":
		if len(args) == 0 {
			return Type{}, fmt.Errorf("ltype: VARBYTE requires a length in %q", s)
		}
		t = Type{Kind: KindVarByte, Length: args[0]}
	default:
		return Type{}, fmt.Errorf("ltype: unknown type %q", s)
	}
	if unicode {
		if t.Kind != KindChar && t.Kind != KindVarChar {
			return Type{}, fmt.Errorf("ltype: CHARACTER SET on non-character type %q", s)
		}
		t.CharSet = CharSetUnicode
	}
	if err := t.Validate(); err != nil {
		return Type{}, err
	}
	return t, nil
}

// Field is a named, typed position in a record layout.
type Field struct {
	Name string
	Type Type
}

// Layout describes the shape of records in a load or export job: an ordered
// list of fields, as declared by .layout/.field commands in an ETL script.
type Layout struct {
	Name   string
	Fields []Field
}

// FieldIndex returns the position of the named field (case-insensitive), or
// -1 if the layout has no such field.
func (l *Layout) FieldIndex(name string) int {
	for i, f := range l.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks every field type and that field names are unique.
func (l *Layout) Validate() error {
	seen := make(map[string]bool, len(l.Fields))
	if len(l.Fields) == 0 {
		return fmt.Errorf("ltype: layout %q has no fields", l.Name)
	}
	for _, f := range l.Fields {
		if f.Name == "" {
			return fmt.Errorf("ltype: layout %q has an unnamed field", l.Name)
		}
		key := strings.ToUpper(f.Name)
		if seen[key] {
			return fmt.Errorf("ltype: layout %q has duplicate field %q", l.Name, f.Name)
		}
		seen[key] = true
		if err := f.Type.Validate(); err != nil {
			return fmt.Errorf("ltype: layout %q field %q: %w", l.Name, f.Name, err)
		}
	}
	return nil
}
