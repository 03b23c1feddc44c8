package ltype

import (
	"bytes"
	"fmt"
	"strings"
)

// Vartext is the delimiter-separated text record format of legacy load
// utilities ("FORMAT VARTEXT '|'"). Every field is transported as text; an
// empty field denotes NULL. A backslash escapes the delimiter, backslash
// itself, and newline inside field data.
//
// Vartext input requires every layout field to be a character type; the
// legacy client rejects scripts that declare numeric fields for vartext
// files, mirroring the real utilities.

// VartextScratch holds reusable buffers for vartext field splitting. The
// zero value is ready to use; reusing one scratch across calls keeps the
// per-line split allocation-free once the buffers have grown.
type VartextScratch struct {
	fields []string
	esc    []byte
}

// VartextRecord splits one vartext line into raw field strings, honoring
// backslash escapes. It does not validate against a layout. Hot-path
// callers use vartextFieldsInto via ParseVartextRecordInto instead.
func VartextRecord(line string, delim byte) []string {
	var sc VartextScratch
	fields := vartextFieldsInto(&sc, line, delim)
	out := make([]string, len(fields))
	copy(out, fields)
	return out
}

// vartextFieldsInto splits line into sc.fields and returns it. Lines with
// no escapes — the overwhelming majority — split by slicing line itself, so
// the returned strings alias line's memory and the call allocates nothing
// once sc.fields has grown to the field count.
func vartextFieldsInto(sc *VartextScratch, line string, delim byte) []string {
	sc.fields = sc.fields[:0]
	if strings.IndexByte(line, '\\') < 0 {
		start := 0
		for i := 0; i < len(line); i++ {
			if line[i] == delim {
				sc.fields = append(sc.fields, line[start:i])
				start = i + 1
			}
		}
		sc.fields = append(sc.fields, line[start:])
		return sc.fields
	}
	return vartextFieldsSlow(sc, line, delim)
}

// vartextFieldsSlow handles lines containing backslash escapes. Unescaped
// bytes are built in sc.esc, but each field still materializes as its own
// string — acceptable, since escaped lines are rare.
func vartextFieldsSlow(sc *VartextScratch, line string, delim byte) []string {
	buf := sc.esc[:0]
	start := 0 // index in buf where the current field begins
	esc := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case esc:
			buf = append(buf, c)
			esc = false
		case c == '\\':
			esc = true
		case c == delim:
			sc.fields = append(sc.fields, string(buf[start:]))
			start = len(buf)
		default:
			buf = append(buf, c)
		}
	}
	if esc {
		buf = append(buf, '\\') // trailing lone backslash is literal
	}
	sc.fields = append(sc.fields, string(buf[start:]))
	sc.esc = buf
	return sc.fields
}

// AppendVartext appends the vartext encoding of the raw field strings to dst
// with the given delimiter and a trailing newline.
func AppendVartext(dst []byte, fields []string, delim byte) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, delim)
		}
		for j := 0; j < len(f); j++ {
			c := f[j]
			if c == delim || c == '\\' || c == '\n' {
				dst = append(dst, '\\')
			}
			dst = append(dst, c)
		}
	}
	return append(dst, '\n')
}

// ParseVartextRecord converts one vartext line into a Record for the layout.
// The field count must match the layout exactly; this is the classic "wrong
// number of fields" data error of §7. Hot-path callers use
// ParseVartextRecordInto, which reuses caller-provided scratch.
func ParseVartextRecord(line string, delim byte, layout *Layout) (Record, error) {
	rec := make(Record, len(layout.Fields))
	var sc VartextScratch
	if err := ParseVartextRecordInto(rec, line, delim, layout, &sc); err != nil {
		return nil, err
	}
	return rec, nil
}

// ParseVartextRecordInto parses one vartext line into rec, which must have
// exactly len(layout.Fields) values, reusing sc's split buffers. On the
// common escape-free line the parsed string values alias line's memory and
// the call performs no allocation; the caller must consume or copy rec
// before reusing it or mutating line's backing storage.
func ParseVartextRecordInto(rec Record, line string, delim byte, layout *Layout, sc *VartextScratch) error {
	if len(rec) != len(layout.Fields) {
		return errScratchSize(len(rec), layout)
	}
	fields := vartextFieldsInto(sc, line, delim)
	if len(fields) != len(layout.Fields) {
		return errVartextFieldCount(len(fields), layout)
	}
	for i := range layout.Fields {
		v, err := ParseText(fields[i], layout.Fields[i].Type)
		if err != nil {
			return errField(layout.Fields[i].Name, err)
		}
		rec[i] = v
	}
	return nil
}

func errVartextFieldCount(n int, layout *Layout) error {
	return fmt.Errorf("ltype: vartext record has %d fields, layout %q expects %d",
		n, layout.Name, len(layout.Fields))
}

// ValidateVartextLayout checks that a layout is usable with vartext input:
// every field must be CHAR or VARCHAR.
func ValidateVartextLayout(layout *Layout) error {
	for _, f := range layout.Fields {
		if f.Type.Kind != KindChar && f.Type.Kind != KindVarChar {
			return fmt.Errorf("ltype: vartext layout %q: field %q has non-character type %s",
				layout.Name, f.Name, f.Type)
		}
	}
	return nil
}

// SplitVartextLines splits file contents into lines, tolerating a missing
// final newline and both \n and \r\n line endings. Escaped newlines inside a
// field (backslash immediately before the newline) do not split. Hot-path
// callers iterate with NextVartextLine instead of materializing the slice.
func SplitVartextLines(data []byte) []string {
	var lines []string
	s := string(data) // one copy; the returned lines alias it
	for pos := 0; pos < len(s); {
		line, next, ok := NextVartextLine(s, pos)
		if !ok {
			break
		}
		lines = append(lines, line)
		pos = next
	}
	return lines
}

// NextVartextLine returns the vartext line starting at pos in data, the
// position of the following line, and whether a line was present (false
// only when pos is at or past the end). The returned line aliases data,
// has any trailing \r removed, and honors escaped newlines exactly like
// SplitVartextLines.
func NextVartextLine(data string, pos int) (line string, next int, ok bool) {
	if pos >= len(data) {
		return "", pos, false
	}
	end := VartextLineEnd(data, pos)
	return strings.TrimSuffix(data[pos:end], "\r"), min(end+1, len(data)), true
}

// VartextLineEnd returns the index of the newline that ends the vartext line
// starting at start in data, or len(data) when the line runs to the end. A
// newline preceded by an odd run of backslashes is escaped field data and
// does not end the line. It is the one line scan for vartext, on both file
// contents (string) and wire payloads ([]byte).
func VartextLineEnd[T string | []byte](data T, start int) int {
	for i := start; i < len(data); i++ {
		var n int
		switch d := any(data[i:]).(type) {
		case string:
			n = strings.IndexByte(d, '\n')
		case []byte:
			n = bytes.IndexByte(d, '\n')
		}
		if n < 0 {
			break
		}
		i += n
		// Count the run of backslashes immediately preceding the newline; an
		// odd count means the newline is escaped.
		bs := 0
		for j := i - 1; j >= start && data[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return i
		}
	}
	return len(data)
}
