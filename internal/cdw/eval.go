package cdw

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"etlvirt/internal/sqlparse"
)

// frameCol identifies one column visible during evaluation.
type frameCol struct {
	qual string // lower-cased table alias or name; "" for computed columns
	name string // lower-cased column name
}

// frame is the variable scope for expression evaluation: a set of named
// columns bound to the current row, with an optional parent scope for
// correlated subqueries.
type frame struct {
	cols   []frameCol
	row    []Datum
	parent *frame
}

// matches reports whether a reference qual.name (either case; qual may be
// empty) names this column. It compares without lower-casing the reference,
// so resolving a column allocates nothing.
func (c frameCol) matches(qual, name string) bool {
	return strings.EqualFold(c.name, name) && (qual == "" || strings.EqualFold(c.qual, qual))
}

func (f *frame) lookup(qual, name string) (Datum, bool, error) {
	for fr := f; fr != nil; fr = fr.parent {
		found := -1
		for i, c := range fr.cols {
			if !c.matches(qual, name) {
				continue
			}
			if found >= 0 {
				return Datum{}, false, errf(CodeNoSuchColumn, "ambiguous column reference %s", strings.ToLower(name))
			}
			found = i
		}
		if found >= 0 {
			return fr.row[found], true, nil
		}
	}
	return Datum{}, false, nil
}

// evalCtx carries evaluation state: the engine (for subqueries), the current
// scope, and aggregate values precomputed by the SELECT executor.
type evalCtx struct {
	agg map[sqlparse.Expr]Datum // aggregate call -> value for current group
	// semi holds hashed EXISTS answers for every row of the relation a
	// WHERE is filtering (see semiJoins); row is the row being evaluated.
	semi map[*sqlparse.ExistsExpr][]bool
	row  int
}

func (e *Engine) eval(ctx *evalCtx, x sqlparse.Expr, f *frame) (Datum, error) {
	switch v := x.(type) {
	case *sqlparse.Literal:
		return literalDatum(v)

	case *sqlparse.ColRef:
		d, ok, err := f.lookup(v.Qualifier, v.Name)
		if err != nil {
			return Datum{}, err
		}
		if !ok {
			return Datum{}, errf(CodeNoSuchColumn, "column %s does not exist", refName(v))
		}
		return d, nil

	case *sqlparse.Placeholder:
		return Datum{}, errf(CodeSyntax, "unbound placeholder :%s", v.Name)

	case *sqlparse.UnaryExpr:
		return e.evalUnary(ctx, v, f)

	case *sqlparse.BinaryExpr:
		return e.evalBinary(ctx, v, f)

	case *sqlparse.FuncCall:
		if isAggregate(v.Name) {
			if ctx.agg != nil {
				if d, ok := ctx.agg[x]; ok {
					return d, nil
				}
			}
			return Datum{}, errf(CodeSyntax, "aggregate %s not allowed here", v.Name)
		}
		return e.evalFunc(ctx, v, f)

	case *sqlparse.CastExpr:
		if v.Format != "" {
			return Datum{}, errf(CodeUnsupported, "FORMAT cast reached the CDW engine")
		}
		d, err := e.eval(ctx, v.X, f)
		if err != nil {
			return Datum{}, err
		}
		ct, err := ResolveType(v.Type)
		if err != nil {
			return Datum{}, err
		}
		return castDatum(d, ct)

	case *sqlparse.CaseExpr:
		return e.evalCase(ctx, v, f)

	case *sqlparse.IsNullExpr:
		d, err := e.eval(ctx, v.X, f)
		if err != nil {
			return Datum{}, err
		}
		return BoolD(d.IsNull() != v.Not), nil

	case *sqlparse.InExpr:
		return e.evalIn(ctx, v, f)

	case *sqlparse.BetweenExpr:
		d, err := e.eval(ctx, v.X, f)
		if err != nil {
			return Datum{}, err
		}
		lo, err := e.eval(ctx, v.Lo, f)
		if err != nil {
			return Datum{}, err
		}
		hi, err := e.eval(ctx, v.Hi, f)
		if err != nil {
			return Datum{}, err
		}
		if d.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		c1, err := Compare(d, lo)
		if err != nil {
			return Datum{}, AsError(err)
		}
		c2, err := Compare(d, hi)
		if err != nil {
			return Datum{}, AsError(err)
		}
		in := c1 >= 0 && c2 <= 0
		return BoolD(in != v.Not), nil

	case *sqlparse.LikeExpr:
		d, err := e.eval(ctx, v.X, f)
		if err != nil {
			return Datum{}, err
		}
		p, err := e.eval(ctx, v.Pattern, f)
		if err != nil {
			return Datum{}, err
		}
		if d.IsNull() || p.IsNull() {
			return Null(), nil
		}
		if d.Kind != KString || p.Kind != KString {
			return Datum{}, errf(CodeTypeMismatch, "LIKE requires strings, got %s and %s", d.Kind, p.Kind)
		}
		re, err := likeRegexp(p.S)
		if err != nil {
			return Datum{}, err
		}
		return BoolD(re.MatchString(d.S) != v.Not), nil

	case *sqlparse.ExistsExpr:
		if hit, ok := ctx.semi[v]; ok {
			return BoolD(hit[ctx.row] != v.Not), nil
		}
		rows, _, err := e.execSelectCols(v.Sub, f, 1)
		if err != nil {
			return Datum{}, err
		}
		return BoolD((len(rows) > 0) != v.Not), nil

	case *sqlparse.SubqueryExpr:
		rows, _, err := e.execSelectCols(v.Sub, f, 2)
		if err != nil {
			return Datum{}, err
		}
		if len(rows) == 0 {
			return Null(), nil
		}
		if len(rows) > 1 {
			return Datum{}, errf(CodeSyntax, "scalar subquery returned more than one row")
		}
		if len(rows[0]) != 1 {
			return Datum{}, errf(CodeSyntax, "scalar subquery must return one column")
		}
		return rows[0][0], nil

	case *sqlparse.Star:
		return Datum{}, errf(CodeSyntax, "* not allowed in this context")

	default:
		return Datum{}, errf(CodeUnsupported, "unsupported expression %T", x)
	}
}

func refName(v *sqlparse.ColRef) string {
	if v.Qualifier != "" {
		return v.Qualifier + "." + v.Name
	}
	return v.Name
}

func literalDatum(v *sqlparse.Literal) (Datum, error) {
	switch v.Kind {
	case sqlparse.LitNull:
		return Null(), nil
	case sqlparse.LitInt:
		return IntD(v.Int), nil
	case sqlparse.LitFloat:
		return FloatD(v.Float), nil
	case sqlparse.LitString:
		return StringD(v.Str), nil
	case sqlparse.LitBool:
		return BoolD(v.Bool), nil
	case sqlparse.LitDate:
		d, err := parseDateString(v.Str)
		if err != nil {
			return Datum{}, err
		}
		return d, nil
	default:
		return Datum{}, errf(CodeSyntax, "bad literal kind %d", v.Kind)
	}
}

func parseDateString(s string) (Datum, error) {
	t, err := time.ParseInLocation("2006-01-02", strings.TrimSpace(s), time.UTC)
	if err != nil {
		return Datum{}, errf(CodeDateConv, "invalid date %q", s)
	}
	return Datum{Kind: KDate, I: t.Unix() / 86400}, nil
}

func (e *Engine) evalUnary(ctx *evalCtx, v *sqlparse.UnaryExpr, f *frame) (Datum, error) {
	d, err := e.eval(ctx, v.X, f)
	if err != nil {
		return Datum{}, err
	}
	if d.IsNull() {
		return Null(), nil
	}
	switch v.Op {
	case "NOT":
		if d.Kind != KBool {
			return Datum{}, errf(CodeTypeMismatch, "NOT requires a boolean, got %s", d.Kind)
		}
		return BoolD(!d.Bool), nil
	case "-":
		switch d.Kind {
		case KInt:
			return IntD(-d.I), nil
		case KFloat:
			return FloatD(-d.F), nil
		case KDecimal:
			return DecimalD(-d.I, int(d.Scale)), nil
		}
		return Datum{}, errf(CodeTypeMismatch, "unary - requires a number, got %s", d.Kind)
	case "+":
		if !d.Kind.isNumeric() {
			return Datum{}, errf(CodeTypeMismatch, "unary + requires a number, got %s", d.Kind)
		}
		return d, nil
	default:
		return Datum{}, errf(CodeSyntax, "unknown unary operator %q", v.Op)
	}
}

func (e *Engine) evalBinary(ctx *evalCtx, v *sqlparse.BinaryExpr, f *frame) (Datum, error) {
	// AND/OR need three-valued logic with short-circuit.
	if v.Op == "AND" || v.Op == "OR" {
		l, err := e.eval(ctx, v.L, f)
		if err != nil {
			return Datum{}, err
		}
		if !l.IsNull() && l.Kind != KBool {
			return Datum{}, errf(CodeTypeMismatch, "%s requires booleans", v.Op)
		}
		if v.Op == "AND" && !l.IsNull() && !l.Bool {
			return BoolD(false), nil
		}
		if v.Op == "OR" && !l.IsNull() && l.Bool {
			return BoolD(true), nil
		}
		r, err := e.eval(ctx, v.R, f)
		if err != nil {
			return Datum{}, err
		}
		if !r.IsNull() && r.Kind != KBool {
			return Datum{}, errf(CodeTypeMismatch, "%s requires booleans", v.Op)
		}
		switch v.Op {
		case "AND":
			if !r.IsNull() && !r.Bool {
				return BoolD(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return Null(), nil
			}
			return BoolD(true), nil
		default: // OR
			if !r.IsNull() && r.Bool {
				return BoolD(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return Null(), nil
			}
			return BoolD(false), nil
		}
	}

	l, err := e.eval(ctx, v.L, f)
	if err != nil {
		return Datum{}, err
	}
	r, err := e.eval(ctx, v.R, f)
	if err != nil {
		return Datum{}, err
	}
	switch v.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c, err := Compare(l, r)
		if err != nil {
			return Datum{}, AsError(err)
		}
		var out bool
		switch v.Op {
		case "=":
			out = c == 0
		case "<>":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return BoolD(out), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return StringD(l.Render() + r.Render()), nil
	case "+", "-", "*", "/", "%", "**":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return arith(v.Op, l, r)
	default:
		return Datum{}, errf(CodeSyntax, "unknown operator %q", v.Op)
	}
}

func arith(op string, l, r Datum) (Datum, error) {
	// date arithmetic: date +/- int days, date - date
	if l.Kind == KDate && r.Kind == KInt && (op == "+" || op == "-") {
		if op == "+" {
			return Datum{Kind: KDate, I: l.I + r.I}, nil
		}
		return Datum{Kind: KDate, I: l.I - r.I}, nil
	}
	if l.Kind == KDate && r.Kind == KDate && op == "-" {
		return IntD(l.I - r.I), nil
	}
	if !l.Kind.isNumeric() || !r.Kind.isNumeric() {
		return Datum{}, errf(CodeTypeMismatch, "cannot apply %s to %s and %s", op, l.Kind, r.Kind)
	}
	// pure integer arithmetic stays integral
	if l.Kind == KInt && r.Kind == KInt && op != "**" {
		switch op {
		case "+":
			return IntD(l.I + r.I), nil
		case "-":
			return IntD(l.I - r.I), nil
		case "*":
			return IntD(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return Datum{}, errf(CodeDivByZero, "division by zero")
			}
			return IntD(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return Datum{}, errf(CodeDivByZero, "division by zero")
			}
			return IntD(l.I % r.I), nil
		}
	}
	// same-scale decimal addition/subtraction stays exact
	if l.Kind == KDecimal && r.Kind == KDecimal && l.Scale == r.Scale && (op == "+" || op == "-") {
		if op == "+" {
			return DecimalD(l.I+r.I, int(l.Scale)), nil
		}
		return DecimalD(l.I-r.I, int(l.Scale)), nil
	}
	lf, rf := l.asFloat(), r.asFloat()
	switch op {
	case "+":
		return FloatD(lf + rf), nil
	case "-":
		return FloatD(lf - rf), nil
	case "*":
		return FloatD(lf * rf), nil
	case "/":
		if rf == 0 {
			return Datum{}, errf(CodeDivByZero, "division by zero")
		}
		return FloatD(lf / rf), nil
	case "%":
		if rf == 0 {
			return Datum{}, errf(CodeDivByZero, "division by zero")
		}
		return FloatD(math.Mod(lf, rf)), nil
	case "**":
		return FloatD(math.Pow(lf, rf)), nil
	}
	return Datum{}, errf(CodeSyntax, "unknown arithmetic operator %q", op)
}

func (e *Engine) evalCase(ctx *evalCtx, v *sqlparse.CaseExpr, f *frame) (Datum, error) {
	var operand Datum
	var err error
	if v.Operand != nil {
		operand, err = e.eval(ctx, v.Operand, f)
		if err != nil {
			return Datum{}, err
		}
	}
	for _, w := range v.Whens {
		cond, err := e.eval(ctx, w.Cond, f)
		if err != nil {
			return Datum{}, err
		}
		match := false
		if v.Operand != nil {
			if !operand.IsNull() && !cond.IsNull() {
				c, err := Compare(operand, cond)
				if err != nil {
					return Datum{}, AsError(err)
				}
				match = c == 0
			}
		} else {
			match = !cond.IsNull() && cond.Kind == KBool && cond.Bool
		}
		if match {
			return e.eval(ctx, w.Then, f)
		}
	}
	if v.Else != nil {
		return e.eval(ctx, v.Else, f)
	}
	return Null(), nil
}

func (e *Engine) evalIn(ctx *evalCtx, v *sqlparse.InExpr, f *frame) (Datum, error) {
	d, err := e.eval(ctx, v.X, f)
	if err != nil {
		return Datum{}, err
	}
	var items []Datum
	if v.Sub != nil {
		rows, _, err := e.execSelectCols(v.Sub, f, 0)
		if err != nil {
			return Datum{}, err
		}
		for _, row := range rows {
			if len(row) != 1 {
				return Datum{}, errf(CodeSyntax, "IN subquery must return one column")
			}
			items = append(items, row[0])
		}
	} else {
		for _, le := range v.List {
			it, err := e.eval(ctx, le, f)
			if err != nil {
				return Datum{}, err
			}
			items = append(items, it)
		}
	}
	if d.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, it := range items {
		if it.IsNull() {
			sawNull = true
			continue
		}
		c, err := Compare(d, it)
		if err != nil {
			return Datum{}, AsError(err)
		}
		if c == 0 {
			return BoolD(!v.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return BoolD(v.Not), nil
}

// likeRegexp compiles a SQL LIKE pattern: % matches any run, _ any single
// character, backslash escapes.
func likeRegexp(pattern string) (*regexp.Regexp, error) {
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch c {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		case '\\':
			if i+1 < len(pattern) {
				i++
				sb.WriteString(regexp.QuoteMeta(string(pattern[i])))
			}
		default:
			sb.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, errf(CodeSyntax, "bad LIKE pattern %q", pattern)
	}
	return re, nil
}

// castDatum converts d to the target column type, producing legacy-coded
// engine errors on failure.
func castDatum(d Datum, t ColType) (Datum, error) {
	if d.IsNull() {
		return Null(), nil
	}
	switch t.Kind {
	case KBool:
		switch d.Kind {
		case KBool:
			return d, nil
		case KString:
			s := strings.ToLower(strings.TrimSpace(d.S))
			if s == "true" || s == "t" || s == "1" {
				return BoolD(true), nil
			}
			if s == "false" || s == "f" || s == "0" {
				return BoolD(false), nil
			}
		}
		return Datum{}, errf(CodeTypeMismatch, "cannot cast %s to BOOLEAN", d.Kind)

	case KInt:
		switch d.Kind {
		case KInt:
			return d, nil
		case KFloat:
			if math.IsNaN(d.F) || math.IsInf(d.F, 0) || d.F > math.MaxInt64 || d.F < math.MinInt64 {
				return Datum{}, errf(CodeBadNumeric, "float %v out of BIGINT range", d.F)
			}
			return IntD(int64(d.F)), nil
		case KDecimal:
			return IntD(d.I / pow10i(int(d.Scale))), nil
		case KString:
			n, err := strconv.ParseInt(strings.TrimSpace(d.S), 10, 64)
			if err != nil {
				return Datum{}, errf(CodeBadNumeric, "invalid integer %q", d.S)
			}
			return IntD(n), nil
		case KBool:
			return IntD(boolToInt(d.Bool)), nil
		}
		return Datum{}, errf(CodeTypeMismatch, "cannot cast %s to BIGINT", d.Kind)

	case KFloat:
		switch d.Kind {
		case KFloat:
			return d, nil
		case KInt, KDecimal:
			return FloatD(d.asFloat()), nil
		case KString:
			fv, err := strconv.ParseFloat(strings.TrimSpace(d.S), 64)
			if err != nil {
				return Datum{}, errf(CodeBadNumeric, "invalid number %q", d.S)
			}
			return FloatD(fv), nil
		}
		return Datum{}, errf(CodeTypeMismatch, "cannot cast %s to DOUBLE", d.Kind)

	case KDecimal:
		switch d.Kind {
		case KDecimal:
			if int(d.Scale) == t.Scale {
				if overflowsPrecision(d.I, t.Precision) {
					return Datum{}, errf(CodeBadNumeric, "decimal overflows DECIMAL(%d,%d)", t.Precision, t.Scale)
				}
				return d, nil
			}
			return rescaleDecimal(d, t)
		case KInt:
			u := d.I * pow10i(t.Scale)
			if overflowsPrecision(u, t.Precision) || (d.I != 0 && u/d.I != pow10i(t.Scale)) {
				return Datum{}, errf(CodeBadNumeric, "integer overflows DECIMAL(%d,%d)", t.Precision, t.Scale)
			}
			return DecimalD(u, t.Scale), nil
		case KFloat:
			scaled := d.F * math.Pow10(t.Scale)
			if math.IsNaN(scaled) || math.Abs(scaled) >= 1e18 {
				return Datum{}, errf(CodeBadNumeric, "float overflows DECIMAL(%d,%d)", t.Precision, t.Scale)
			}
			u := int64(math.RoundToEven(scaled))
			if overflowsPrecision(u, t.Precision) {
				return Datum{}, errf(CodeBadNumeric, "float overflows DECIMAL(%d,%d)", t.Precision, t.Scale)
			}
			return DecimalD(u, t.Scale), nil
		case KString:
			u, err := parseDecimalString(strings.TrimSpace(d.S), t.Precision, t.Scale)
			if err != nil {
				return Datum{}, err
			}
			return DecimalD(u, t.Scale), nil
		}
		return Datum{}, errf(CodeTypeMismatch, "cannot cast %s to DECIMAL", d.Kind)

	case KString:
		s := d.S
		if d.Kind != KString {
			s = d.Render()
		}
		if t.Length > 0 && len(s) > t.Length {
			return Datum{}, errf(CodeStringTrunc, "string of length %d exceeds %s", len(s), t)
		}
		return StringD(s), nil

	case KDate:
		switch d.Kind {
		case KDate:
			return d, nil
		case KTimestamp:
			return Datum{Kind: KDate, I: floorDiv(d.I, 86400*1e6)}, nil
		case KString:
			return parseDateString(d.S)
		}
		return Datum{}, errf(CodeDateConv, "cannot cast %s to DATE", d.Kind)

	case KTime:
		switch d.Kind {
		case KTime:
			return d, nil
		case KString:
			var h, m, s int
			if _, err := fmt.Sscanf(strings.TrimSpace(d.S), "%d:%d:%d", &h, &m, &s); err != nil ||
				h < 0 || h > 23 || m < 0 || m > 59 || s < 0 || s > 59 {
				return Datum{}, errf(CodeDateConv, "invalid time %q", d.S)
			}
			return TimeD(int64(h*3600 + m*60 + s)), nil
		}
		return Datum{}, errf(CodeDateConv, "cannot cast %s to TIME", d.Kind)

	case KTimestamp:
		switch d.Kind {
		case KTimestamp:
			return d, nil
		case KDate:
			return TimestampD(d.I * 86400 * 1e6), nil
		case KString:
			ts, err := time.ParseInLocation("2006-01-02 15:04:05", strings.TrimSpace(d.S), time.UTC)
			if err != nil {
				return Datum{}, errf(CodeDateConv, "invalid timestamp %q", d.S)
			}
			return TimestampD(ts.UnixMicro()), nil
		}
		return Datum{}, errf(CodeDateConv, "cannot cast %s to TIMESTAMP", d.Kind)

	case KBytes:
		if d.Kind == KBytes {
			if t.Length > 0 && len(d.B) > t.Length {
				return Datum{}, errf(CodeStringTrunc, "binary of length %d exceeds %s", len(d.B), t)
			}
			return d, nil
		}
		return Datum{}, errf(CodeTypeMismatch, "cannot cast %s to VARBINARY", d.Kind)
	}
	return Datum{}, errf(CodeTypeMismatch, "unsupported cast target %s", t)
}

func rescaleDecimal(d Datum, t ColType) (Datum, error) {
	diff := t.Scale - int(d.Scale)
	u := d.I
	if diff > 0 {
		for i := 0; i < diff; i++ {
			prev := u
			u *= 10
			if u/10 != prev {
				return Datum{}, errf(CodeBadNumeric, "decimal overflows DECIMAL(%d,%d)", t.Precision, t.Scale)
			}
		}
	} else {
		div := pow10i(-diff)
		rem := u % div
		u /= div
		// round half away from zero
		if abs64(rem)*2 >= div {
			if d.I >= 0 {
				u++
			} else {
				u--
			}
		}
	}
	if overflowsPrecision(u, t.Precision) {
		return Datum{}, errf(CodeBadNumeric, "decimal overflows DECIMAL(%d,%d)", t.Precision, t.Scale)
	}
	return DecimalD(u, t.Scale), nil
}

func parseDecimalString(s string, precision, scale int) (int64, error) {
	if s == "" {
		return 0, errf(CodeBadNumeric, "empty decimal")
	}
	neg := false
	switch s[0] {
	case '-':
		neg, s = true, s[1:]
	case '+':
		s = s[1:]
	}
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return 0, errf(CodeBadNumeric, "malformed decimal %q", s)
	}
	for _, r := range intPart + fracPart {
		if r < '0' || r > '9' {
			return 0, errf(CodeBadNumeric, "malformed decimal %q", s)
		}
	}
	round := int64(0)
	if len(fracPart) > scale {
		if fracPart[scale] >= '5' {
			round = 1
		}
		fracPart = fracPart[:scale]
	}
	for len(fracPart) < scale {
		fracPart += "0"
	}
	digits := strings.TrimLeft(intPart+fracPart, "0")
	if digits == "" {
		digits = "0"
	}
	if len(digits) > 18 {
		return 0, errf(CodeBadNumeric, "decimal %q overflows", s)
	}
	u, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, errf(CodeBadNumeric, "malformed decimal %q", s)
	}
	u += round
	if overflowsPrecision(u, precision) {
		return 0, errf(CodeBadNumeric, "decimal %q exceeds precision %d", s, precision)
	}
	if neg {
		u = -u
	}
	return u, nil
}

func overflowsPrecision(u int64, precision int) bool {
	return abs64(u) > pow10i(precision)-1
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func pow10i(n int) int64 {
	v := int64(1)
	for i := 0; i < n && i < 19; i++ {
		v *= 10
	}
	return v
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
