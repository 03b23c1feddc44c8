package cdw

import "fmt"

// Error codes. The values deliberately mirror the legacy warehouse's error
// numbering where the paper references specific codes (2666 for DATE
// conversion in Figure 5, 2794 for uniqueness violations), so that error
// tables populated through the virtualizer read like legacy ones.
const (
	CodeInternal     = 1000
	CodeSyntax       = 3706
	CodeNoSuchObject = 3807
	CodeObjectExists = 3803
	CodeNoSuchColumn = 3810
	CodeDateConv     = 2666 // invalid date / date conversion failure
	CodeBadNumeric   = 2617 // numeric conversion/overflow
	CodeStringTrunc  = 3996 // string too long for column
	CodeNotNull      = 3604 // NULL in NOT NULL column
	CodeUniqueness   = 2794 // duplicate key (legacy code used in Figure 5)
	CodeFieldCount   = 2673 // wrong number of fields in a record
	CodeDivByZero    = 2618
	CodeTypeMismatch = 3569
	CodeMaxErrors    = 9057 // adaptive error handling budget exhausted (Figure 6)
	CodeCopyFailed   = 9100
	CodeUnsupported  = 5315
)

// Structural reports whether code is a failure of the statement itself — a
// missing object or column, bad syntax, an unsupported construct, a failed
// COPY or an engine fault — rather than of a row it touched. A structural
// error aborts a job; any other is recorded as an error row.
func Structural(code int) bool {
	switch code {
	case CodeNoSuchObject, CodeNoSuchColumn, CodeSyntax, CodeUnsupported, CodeCopyFailed, CodeInternal:
		return true
	}
	return false
}

// Error is an engine error. Row carries the 1-based source row sequence when
// the engine is configured to expose row detail; -1 otherwise. The CDW runs
// with row detail off — statements fail as a unit without telling the caller
// which row was at fault, which is precisely why the virtualizer needs
// adaptive splitting (§7).
type Error struct {
	Code  int
	Msg   string
	Field string // offending column/field name when known
	Row   int64  // 1-based source row, or -1/0 when unknown
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("error %d on %s: %s", e.Code, e.Field, e.Msg)
	}
	return fmt.Sprintf("error %d: %s", e.Code, e.Msg)
}

// errf builds an *Error with formatting.
func errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// AsError extracts an *Error from err, or wraps it as an internal error.
func AsError(err error) *Error {
	if err == nil {
		return nil
	}
	if e, ok := err.(*Error); ok {
		return e
	}
	return &Error{Code: CodeInternal, Msg: err.Error()}
}

// scrubRowDetail removes per-row attribution from an error, modelling the
// set-oriented CDW behaviour of reporting failures at statement granularity.
func scrubRowDetail(err error) error {
	if e, ok := err.(*Error); ok && e.Row != 0 {
		clone := *e
		clone.Row = 0
		return &clone
	}
	return err
}
