// Package convert implements the DataConverter of §4: on-the-fly conversion
// of legacy-format data chunks into serialized data compatible with the CDW
// bulk-load path.
//
// Input chunks carry either indicator-mode binary records or vartext lines
// (the two legacy client formats). Output is CSV as consumed by the CDW's
// COPY, with a leading __seq column carrying the 1-based global row number —
// the hook that lets adaptive error handling re-apply DML on row ranges and
// report legacy-style "row number" errors (§7).
//
// Records that are malformed in ways the legacy server would catch during
// acquisition (wrong field count, overlong or untypable values) are excluded
// from the output and reported as DataErrors; the virtualizer records them
// in the job's transformation-error table.
package convert

import (
	"fmt"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"
)

// Error codes for acquisition-phase data errors, aligned with internal/cdw.
const (
	CodeFieldCount = 2673
	CodeBadValue   = 2665
	CodeBadRecord  = 2675
	CodeBadUnicode = 6706
)

// DataError describes one rejected input record.
type DataError struct {
	Row   int64 // 1-based global row number
	Code  int
	Field string
	Msg   string
}

// Error implements the error interface.
func (e *DataError) Error() string {
	return fmt.Sprintf("row %d: error %d (%s): %s", e.Row, e.Code, e.Field, e.Msg)
}

// Options tunes conversion behaviour.
type Options struct {
	// ValidateUTF8 rejects invalid UTF-8 in UNICODE character fields, the
	// "sophisticated" conversion mode of §4.
	ValidateUTF8 bool
	// SimulatedByteCost adds a blocking delay of this duration per input
	// byte to every Convert call. It models conversion work on hardware
	// where real CPU parallelism is unavailable (e.g. single-core CI), so
	// scalability experiments can still exercise the parallel pipeline.
	// Zero disables the simulation.
	SimulatedByteCost time.Duration
}

// Converter converts chunks for one load job. It is stateless with respect
// to chunk order; every method may be called from concurrent goroutines on
// distinct chunks, mirroring the parallel DataConverter processes.
type Converter struct {
	layout *ltype.Layout
	format wire.DataFormat
	delim  byte
	opts   Options
	// scratch pools per-chunk decode state (a Record sized to the layout
	// plus vartext split buffers) so steady-state conversion never allocates
	// per row.
	scratch sync.Pool
}

// convScratch is the per-chunk reusable decode state.
type convScratch struct {
	rec ltype.Record
	vs  ltype.VartextScratch
}

// NewConverter builds a converter for a job's layout and input format.
func NewConverter(layout *ltype.Layout, format wire.DataFormat, delim byte, opts Options) (*Converter, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if format == wire.FormatVartext {
		if err := ltype.ValidateVartextLayout(layout); err != nil {
			return nil, err
		}
		if delim == 0 {
			return nil, fmt.Errorf("convert: vartext requires a delimiter")
		}
	}
	c := &Converter{layout: layout, format: format, delim: delim, opts: opts}
	c.scratch.New = func() any {
		return &convScratch{rec: make(ltype.Record, len(layout.Fields))}
	}
	return c, nil
}

// Result is the outcome of converting one chunk.
type Result struct {
	CSV    []byte // serialized rows, ready for the FileWriter
	Rows   int    // rows successfully converted
	Errors []DataError
}

// Convert transforms one chunk payload. firstRow is the 1-based global row
// number of the chunk's first record. A malformed binary chunk (framing
// broken mid-chunk) returns an error; per-record data problems are reported
// in Result.Errors instead. Hot-path callers use ConvertInto, which writes
// CSV into a caller-supplied (typically recycled) buffer.
func (c *Converter) Convert(payload []byte, firstRow int64) (*Result, error) {
	return c.ConvertInto(make([]byte, 0, len(payload)+len(payload)/4), payload, firstRow)
}

// ConvertInto is Convert with caller-managed memory: converted CSV is
// appended to dst and returned as Result.CSV, so a recycled buffer in means
// no per-chunk CSV allocation. Ownership of dst transfers to the call (the
// append may have moved it) and comes back as Result.CSV — on error too, so
// a pooled buffer is never lost: the Result always carries the latest
// buffer for the caller to recycle or reuse. The payload buffer is the
// caller's again as soon as ConvertInto returns — the decode works on a
// private copy, so nothing in the Result aliases payload and it may be
// recycled immediately.
//
//etlvirt:transfers dst
func (c *Converter) ConvertInto(dst []byte, payload []byte, firstRow int64) (*Result, error) {
	if c.opts.SimulatedByteCost > 0 {
		time.Sleep(time.Duration(len(payload)) * c.opts.SimulatedByteCost)
	}
	// The chunk's one unavoidable allocation: an immutable string copy that
	// every decoded string value aliases for the duration of the call.
	chunk := string(payload)
	switch c.format {
	case wire.FormatVartext:
		return c.convertVartext(dst, chunk, firstRow)
	case wire.FormatIndicator:
		return c.convertIndicator(dst, chunk, firstRow)
	default:
		return &Result{CSV: dst}, errUnknownFormat(c.format)
	}
}

func (c *Converter) convertVartext(dst []byte, payload string, firstRow int64) (*Result, error) {
	res := &Result{}
	sc := c.scratch.Get().(*convScratch)
	defer c.scratch.Put(sc)
	row := firstRow
	for pos := 0; pos < len(payload); {
		line, next, ok := ltype.NextVartextLine(payload, pos)
		if !ok {
			break
		}
		pos = next
		if err := ltype.ParseVartextRecordInto(sc.rec, line, c.delim, c.layout, &sc.vs); err != nil {
			res.Errors = append(res.Errors, c.classifyVartextError(line, row, err))
			row++
			continue
		}
		if derr := c.validateRecord(sc.rec, row); derr != nil {
			res.Errors = append(res.Errors, *derr)
			row++
			continue
		}
		dst = c.appendCSVRow(dst, sc.rec, row)
		res.Rows++
		row++
	}
	res.CSV = dst
	return res, nil
}

func (c *Converter) convertIndicator(dst []byte, payload string, firstRow int64) (*Result, error) {
	res := &Result{}
	sc := c.scratch.Get().(*convScratch)
	defer c.scratch.Put(sc)
	row := firstRow
	for pos := 0; pos < len(payload); {
		n, err := ltype.DecodeRecordInto(sc.rec, payload[pos:], c.layout)
		if err != nil {
			// Broken framing poisons the rest of the chunk: fail it, but
			// hand the (possibly regrown) buffer back for recycling.
			res.CSV = dst
			return res, errFraming(row, err)
		}
		pos += n
		if derr := c.validateRecord(sc.rec, row); derr != nil {
			res.Errors = append(res.Errors, *derr)
			row++
			continue
		}
		dst = c.appendCSVRow(dst, sc.rec, row)
		res.Rows++
		row++
	}
	res.CSV = dst
	return res, nil
}

// Cold error constructors, kept out of the hot converters.

func errUnknownFormat(f wire.DataFormat) error {
	return fmt.Errorf("convert: unknown format %d", f)
}

func errFraming(row int64, err error) error {
	return fmt.Errorf("convert: chunk framing broken at row %d: %w", row, err)
}

func (c *Converter) classifyVartextError(line string, row int64, err error) DataError {
	fields := ltype.VartextRecord(line, c.delim)
	if len(fields) != len(c.layout.Fields) {
		return DataError{Row: row, Code: CodeFieldCount,
			Msg: fmt.Sprintf("record has %d fields, layout expects %d", len(fields), len(c.layout.Fields))}
	}
	return DataError{Row: row, Code: CodeBadValue, Msg: err.Error()}
}

// validateRecord applies the conversion-time checks of §4: null detection is
// already done by the record codecs; here we validate character-set
// constraints for UNICODE fields.
func (c *Converter) validateRecord(rec ltype.Record, row int64) *DataError {
	if !c.opts.ValidateUTF8 {
		return nil
	}
	for i, f := range c.layout.Fields {
		if f.Type.CharSet != ltype.CharSetUnicode || rec[i].Null {
			continue
		}
		if (f.Type.Kind == ltype.KindChar || f.Type.Kind == ltype.KindVarChar) && !utf8.ValidString(rec[i].S) {
			return &DataError{Row: row, Code: CodeBadUnicode, Field: f.Name,
				Msg: "invalid UTF-8 in UNICODE field"}
		}
	}
	return nil
}

// appendCSVRow serializes __seq plus the record's fields as one CSV line in
// the CDW's COPY format: comma-separated, \N for NULL, RFC-4180 quoting.
// Non-character kinds render via the append codecs; their text is digits and
// punctuation that never needs quoting, so only string-carrying kinds pay
// the quote scan.
func (c *Converter) appendCSVRow(dst []byte, rec ltype.Record, row int64) []byte {
	dst = strconv.AppendInt(dst, row, 10)
	for i := range rec {
		v := &rec[i]
		dst = append(dst, ',')
		if v.Null {
			dst = append(dst, '\\', 'N')
			continue
		}
		switch v.Kind {
		case ltype.KindChar, ltype.KindVarChar, ltype.KindTimestamp:
			dst = appendCSVField(dst, v.S)
		case ltype.KindDecimal:
			if v.S != "" {
				dst = append(dst, v.S...) // pre-formatted (vartext parse path)
			} else {
				dst = ltype.AppendDecimal(dst, v.I, c.layout.Fields[i].Type.Scale)
			}
		default:
			dst = v.AppendText(dst)
		}
	}
	return append(dst, '\n')
}

// appendCSVField writes one CSV field, quoting when it contains a comma,
// quote, newline, or could be mistaken for the NULL marker.
func appendCSVField(dst []byte, s string) []byte {
	needQuote := s == `\N`
	for i := 0; i < len(s) && !needQuote; i++ {
		switch s[i] {
		case ',', '"', '\n', '\r':
			needQuote = true
		}
	}
	if !needQuote {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"', '"')
			continue
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}
