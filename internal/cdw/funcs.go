package cdw

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"etlvirt/internal/sqlparse"
)

// isAggregate reports whether the function name is an aggregate.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG", "XOR_AGG":
		return true
	}
	return false
}

// hash64 is FNV-1a 64 over the datum's canonical group key, so equal values
// hash equally regardless of representation (DECIMAL scale, padded CHAR).
// It backs the HASH64 scalar used by the scrub layer's column checksums.
func hash64(d Datum) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range []byte(d.GroupKey()) {
		h ^= uint64(b)
		h *= prime64
	}
	return int64(h)
}

// evalFunc evaluates a scalar function call.
func (e *Engine) evalFunc(ctx *evalCtx, v *sqlparse.FuncCall, f *frame) (Datum, error) {
	// Scalar calls rarely take more than four arguments; keeping them on the
	// stack keeps per-row key and predicate evaluation allocation-free.
	var argBuf [4]Datum
	args := argBuf[:0]
	for _, a := range v.Args {
		d, err := e.eval(ctx, a, f)
		if err != nil {
			return Datum{}, err
		}
		args = append(args, d)
	}
	want := func(n int) error {
		if len(args) != n {
			return errf(CodeSyntax, "%s expects %d arguments, got %d", v.Name, n, len(args))
		}
		return nil
	}
	str1 := func() (string, bool, error) {
		if err := want(1); err != nil {
			return "", false, err
		}
		if args[0].IsNull() {
			return "", true, nil
		}
		if args[0].Kind != KString {
			return args[0].Render(), false, nil
		}
		return args[0].S, false, nil
	}

	switch v.Name {
	case "TRIM":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		return StringD(strings.TrimSpace(s)), nil
	case "LTRIM":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		return StringD(strings.TrimLeft(s, " ")), nil
	case "RTRIM":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		return StringD(strings.TrimRight(s, " ")), nil
	case "UPPER":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		return StringD(strings.ToUpper(s)), nil
	case "LOWER":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		return StringD(strings.ToLower(s)), nil
	case "LENGTH", "CHAR_LENGTH", "CHARACTER_LENGTH":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		return IntD(int64(len(s))), nil
	case "REVERSE":
		s, null, err := str1()
		if err != nil || null {
			return Null(), err
		}
		b := []byte(s)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return StringD(string(b)), nil

	case "SUBSTRING", "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return Datum{}, errf(CodeSyntax, "%s expects 2 or 3 arguments", v.Name)
		}
		if anyNull(args) {
			return Null(), nil
		}
		s := args[0].Render()
		start, err := toInt(args[1])
		if err != nil {
			return Datum{}, err
		}
		length := int64(len(s)) + 1
		if len(args) == 3 {
			if length, err = toInt(args[2]); err != nil {
				return Datum{}, err
			}
			if length < 0 {
				length = 0
			}
		}
		// SQL substring is 1-based; positions before 1 consume length.
		if start < 1 {
			length += start - 1
			start = 1
		}
		if length <= 0 || start > int64(len(s)) {
			return StringD(""), nil
		}
		end := start - 1 + length
		if end > int64(len(s)) {
			end = int64(len(s))
		}
		return StringD(s[start-1 : end]), nil

	case "POSITION", "INSTR", "INDEX":
		if err := want(2); err != nil {
			return Datum{}, err
		}
		if anyNull(args) {
			return Null(), nil
		}
		// INDEX(haystack, needle) per legacy; POSITION takes the same order
		// here because the parser does not support the IN syntax form.
		return IntD(int64(strings.Index(args[0].Render(), args[1].Render()) + 1)), nil

	case "REPLACE", "OREPLACE":
		if err := want(3); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		old, newS := "", ""
		if !args[1].IsNull() {
			old = args[1].Render()
		}
		if !args[2].IsNull() {
			newS = args[2].Render()
		}
		if old == "" {
			return StringD(args[0].Render()), nil
		}
		return StringD(strings.ReplaceAll(args[0].Render(), old, newS)), nil

	case "LPAD", "RPAD":
		if err := want(3); err != nil {
			return Datum{}, err
		}
		if anyNull(args) {
			return Null(), nil
		}
		s := args[0].Render()
		n, err := toInt(args[1])
		if err != nil {
			return Datum{}, err
		}
		pad := args[2].Render()
		if n <= int64(len(s)) {
			return StringD(s[:n]), nil
		}
		if pad == "" {
			return StringD(s), nil
		}
		var sb strings.Builder
		for int64(sb.Len())+int64(len(s)) < n {
			sb.WriteString(pad)
		}
		padStr := sb.String()[:n-int64(len(s))]
		if v.Name == "LPAD" {
			return StringD(padStr + s), nil
		}
		return StringD(s + padStr), nil

	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null(), nil
			}
			sb.WriteString(a.Render())
		}
		return StringD(sb.String()), nil

	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil

	case "NULLIF":
		if err := want(2); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if !args[1].IsNull() {
			c, err := Compare(args[0], args[1])
			if err != nil {
				return Datum{}, AsError(err)
			}
			if c == 0 {
				return Null(), nil
			}
		}
		return args[0], nil

	case "ZEROIFNULL":
		if err := want(1); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return IntD(0), nil
		}
		return args[0], nil

	case "GREATEST", "LEAST":
		if len(args) < 1 {
			return Datum{}, errf(CodeSyntax, "%s requires arguments", v.Name)
		}
		if anyNull(args) {
			return Null(), nil
		}
		best := args[0]
		for _, a := range args[1:] {
			c, err := Compare(a, best)
			if err != nil {
				return Datum{}, AsError(err)
			}
			if (v.Name == "GREATEST" && c > 0) || (v.Name == "LEAST" && c < 0) {
				best = a
			}
		}
		return best, nil

	case "ABS":
		if err := want(1); err != nil {
			return Datum{}, err
		}
		a := args[0]
		if a.IsNull() {
			return Null(), nil
		}
		switch a.Kind {
		case KInt:
			return IntD(abs64(a.I)), nil
		case KFloat:
			return FloatD(math.Abs(a.F)), nil
		case KDecimal:
			return DecimalD(abs64(a.I), int(a.Scale)), nil
		}
		return Datum{}, errf(CodeTypeMismatch, "ABS requires a number")

	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Datum{}, errf(CodeSyntax, "ROUND expects 1 or 2 arguments")
		}
		if anyNull(args) {
			return Null(), nil
		}
		places := int64(0)
		if len(args) == 2 {
			var err error
			if places, err = toInt(args[1]); err != nil {
				return Datum{}, err
			}
		}
		scale := math.Pow10(int(places))
		return FloatD(math.Round(args[0].asFloat()*scale) / scale), nil

	case "FLOOR":
		if err := want(1); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return FloatD(math.Floor(args[0].asFloat())), nil
	case "CEIL", "CEILING":
		if err := want(1); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return FloatD(math.Ceil(args[0].asFloat())), nil
	case "SQRT":
		if err := want(1); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		x := args[0].asFloat()
		if x < 0 {
			return Datum{}, errf(CodeBadNumeric, "SQRT of negative number")
		}
		return FloatD(math.Sqrt(x)), nil
	case "MOD":
		if err := want(2); err != nil {
			return Datum{}, err
		}
		if anyNull(args) {
			return Null(), nil
		}
		return arith("%", args[0], args[1])

	case "TO_DATE", "TRY_TO_DATE", "TO_TIMESTAMP", "TRY_TO_TIMESTAMP":
		if err := want(2); err != nil {
			return Datum{}, err
		}
		if anyNull(args) {
			return Null(), nil
		}
		conv := toDate
		if strings.HasSuffix(v.Name, "TIMESTAMP") {
			conv = toTimestamp
		}
		d, err := conv(args[0].Render(), args[1].Render())
		if err != nil && strings.HasPrefix(v.Name, "TRY_") {
			// The TRY_ forms answer NULL where the conversion would fail.
			return Null(), nil
		}
		return d, err

	case "TO_CHAR":
		if len(args) == 1 {
			if args[0].IsNull() {
				return Null(), nil
			}
			return StringD(args[0].Render()), nil
		}
		if err := want(2); err != nil {
			return Datum{}, err
		}
		if anyNull(args) {
			return Null(), nil
		}
		return toChar(args[0], args[1].Render())

	case "TO_NUMBER":
		if err := want(1); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		fv, err := strconv.ParseFloat(strings.TrimSpace(args[0].Render()), 64)
		if err != nil {
			return Datum{}, errf(CodeBadNumeric, "invalid number %q", args[0].Render())
		}
		return FloatD(fv), nil

	case "ADD_MONTHS":
		if err := want(2); err != nil {
			return Datum{}, err
		}
		if anyNull(args) {
			return Null(), nil
		}
		if args[0].Kind != KDate {
			return Datum{}, errf(CodeTypeMismatch, "ADD_MONTHS requires a date")
		}
		n, err := toInt(args[1])
		if err != nil {
			return Datum{}, err
		}
		y, m, d := epochDaysToCivil(args[0].I)
		t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).AddDate(0, int(n), 0)
		return DateD(t.Year(), int(t.Month()), t.Day()), nil

	case "EXTRACT_YEAR", "YEAR":
		return extractDatePart(args, want, 'y')
	case "EXTRACT_MONTH", "MONTH":
		return extractDatePart(args, want, 'm')
	case "EXTRACT_DAY", "DAY":
		return extractDatePart(args, want, 'd')

	case "CURRENT_DATE":
		now := e.now()
		return DateD(now.Year(), int(now.Month()), now.Day()), nil
	case "CURRENT_TIMESTAMP", "NOW":
		return TimestampD(e.now().UnixMicro()), nil

	case "HASH64":
		// Order-insensitive checksum primitive for the scrub layer: a
		// deterministic 64-bit hash of the value's canonical form. NULL
		// hashes to NULL so COUNT(col) still distinguishes null patterns.
		if err := want(1); err != nil {
			return Datum{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return IntD(hash64(args[0])), nil

	default:
		return Datum{}, errf(CodeUnsupported, "unknown function %s", v.Name)
	}
}

func extractDatePart(args []Datum, want func(int) error, part byte) (Datum, error) {
	if err := want(1); err != nil {
		return Datum{}, err
	}
	if args[0].IsNull() {
		return Null(), nil
	}
	var y, m, d int
	switch args[0].Kind {
	case KDate:
		y, m, d = epochDaysToCivil(args[0].I)
	case KTimestamp:
		t := time.UnixMicro(args[0].I).UTC()
		y, m, d = t.Year(), int(t.Month()), t.Day()
	default:
		return Datum{}, errf(CodeTypeMismatch, "cannot extract from %s", args[0].Kind)
	}
	switch part {
	case 'y':
		return IntD(int64(y)), nil
	case 'm':
		return IntD(int64(m)), nil
	default:
		return IntD(int64(d)), nil
	}
}

func anyNull(args []Datum) bool {
	for _, a := range args {
		if a.IsNull() {
			return true
		}
	}
	return false
}

func toInt(d Datum) (int64, error) {
	switch d.Kind {
	case KInt:
		return d.I, nil
	case KFloat:
		return int64(d.F), nil
	case KDecimal:
		return d.I / pow10i(int(d.Scale)), nil
	case KString:
		n, err := strconv.ParseInt(strings.TrimSpace(d.S), 10, 64)
		if err != nil {
			return 0, errf(CodeBadNumeric, "invalid integer %q", d.S)
		}
		return n, nil
	default:
		return 0, errf(CodeTypeMismatch, "expected an integer, got %s", d.Kind)
	}
}

// --- datetime format model (Oracle/Snowflake-style tokens) ---

// fmtElem is one element of a format model.
type fmtElem uint8

const (
	fmtLit fmtElem = iota // one literal byte
	fmtYYYY
	fmtYY // year 2000+YY
	fmtMM
	fmtDD
	fmtHH24 // HH24, or its alias HH
	fmtMI
	fmtSS
)

// fmtElems lists the element names in match order: a name comes before any
// shorter name it starts with.
var fmtElems = [...]struct {
	name string
	elem fmtElem
}{
	{"YYYY", fmtYYYY}, {"YY", fmtYY}, {"MM", fmtMM}, {"DD", fmtDD},
	{"HH24", fmtHH24}, {"HH", fmtHH24}, {"MI", fmtMI}, {"SS", fmtSS},
}

// nextFmtElem returns the element of model starting at byte i and its length
// in bytes. Names match case-insensitively; any other byte is a literal.
// Callers walk the model in place, so evaluating a format once per row
// allocates nothing.
func nextFmtElem(model string, i int) (fmtElem, int) {
	for _, e := range fmtElems {
		if len(model)-i >= len(e.name) && strings.EqualFold(model[i:i+len(e.name)], e.name) {
			return e.elem, len(e.name)
		}
	}
	return fmtLit, 1
}

type dtParts struct {
	y, mo, d, h, mi, s int
}

func parseByModel(s, model string) (dtParts, error) {
	p := dtParts{y: 1970, mo: 1, d: 1}
	pos := 0
	readNum := func(width int) (int, error) {
		start := pos
		for pos < len(s) && pos-start < width && s[pos] >= '0' && s[pos] <= '9' {
			pos++
		}
		if pos == start {
			return 0, errf(CodeDateConv, "cannot parse %q with format %q", s, model)
		}
		n, _ := strconv.Atoi(s[start:pos])
		return n, nil
	}
	for i := 0; i < len(model); {
		elem, n := nextFmtElem(model, i)
		if elem == fmtLit {
			if pos >= len(s) || s[pos] != model[i] {
				return dtParts{}, errf(CodeDateConv, "cannot parse %q with format %q", s, model)
			}
			pos++
			i++
			continue
		}
		i += n
		width := 2
		if elem == fmtYYYY {
			width = 4
		}
		v, err := readNum(width)
		if err != nil {
			return dtParts{}, err
		}
		switch elem {
		case fmtYYYY:
			p.y = v
		case fmtYY:
			p.y = 2000 + v
		case fmtMM:
			p.mo = v
		case fmtDD:
			p.d = v
		case fmtHH24:
			p.h = v
		case fmtMI:
			p.mi = v
		case fmtSS:
			p.s = v
		}
	}
	if pos != len(s) {
		return dtParts{}, errf(CodeDateConv, "trailing input parsing %q with format %q", s, model)
	}
	return p, nil
}

func (p dtParts) validate() error {
	if p.mo < 1 || p.mo > 12 || p.d < 1 {
		return errf(CodeDateConv, "invalid date component")
	}
	t := time.Date(p.y, time.Month(p.mo), p.d, 0, 0, 0, 0, time.UTC)
	if t.Year() != p.y || int(t.Month()) != p.mo || t.Day() != p.d {
		return errf(CodeDateConv, "invalid calendar date %04d-%02d-%02d", p.y, p.mo, p.d)
	}
	if p.h < 0 || p.h > 23 || p.mi < 0 || p.mi > 59 || p.s < 0 || p.s > 59 {
		return errf(CodeDateConv, "invalid time component")
	}
	return nil
}

func toDate(s, model string) (Datum, error) {
	p, err := parseByModel(strings.TrimSpace(s), model)
	if err != nil {
		return Datum{}, err
	}
	if err := p.validate(); err != nil {
		return Datum{}, err
	}
	return DateD(p.y, p.mo, p.d), nil
}

func toTimestamp(s, model string) (Datum, error) {
	p, err := parseByModel(strings.TrimSpace(s), model)
	if err != nil {
		return Datum{}, err
	}
	if err := p.validate(); err != nil {
		return Datum{}, err
	}
	t := time.Date(p.y, time.Month(p.mo), p.d, p.h, p.mi, p.s, 0, time.UTC)
	return TimestampD(t.UnixMicro()), nil
}

func toChar(d Datum, model string) (Datum, error) {
	var t time.Time
	switch d.Kind {
	case KDate:
		t = time.Unix(d.I*86400, 0).UTC()
	case KTimestamp:
		t = time.UnixMicro(d.I).UTC()
	default:
		return StringD(d.Render()), nil
	}
	var sb strings.Builder
	for i := 0; i < len(model); {
		elem, n := nextFmtElem(model, i)
		switch elem {
		case fmtLit:
			sb.WriteByte(model[i])
		case fmtYYYY:
			fmt.Fprintf(&sb, "%04d", t.Year())
		case fmtYY:
			fmt.Fprintf(&sb, "%02d", t.Year()%100)
		case fmtMM:
			fmt.Fprintf(&sb, "%02d", int(t.Month()))
		case fmtDD:
			fmt.Fprintf(&sb, "%02d", t.Day())
		case fmtHH24:
			fmt.Fprintf(&sb, "%02d", t.Hour())
		case fmtMI:
			fmt.Fprintf(&sb, "%02d", t.Minute())
		case fmtSS:
			fmt.Fprintf(&sb, "%02d", t.Second())
		}
		i += n
	}
	return StringD(sb.String()), nil
}
