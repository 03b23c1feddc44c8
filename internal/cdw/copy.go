package cdw

import (
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"etlvirt/internal/sqlparse"
)

// NullMarker is the CSV token the CDW's COPY recognizes as NULL. The
// virtualizer's DataConverter emits it for legacy NULL indicators.
const NullMarker = `\N`

// gzPool recycles gzip.Readers across COPY objects: each one carries a
// decompressor's window and tables, so building one per object would be
// most of what inflating a small staged file allocates. A reader is Reset
// onto every object before use, so one returned after a failed object is
// as good as new.
var gzPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// execCopy implements COPY INTO t FROM 'store://prefix/' — the CDW bulk
// ingest path (§6). Every object under the prefix is parsed as CSV (gzip
// deflated when the option says so or the key ends in .gz), values are cast
// to the column types, and the whole operation commits atomically.
func (e *Engine) execCopy(s *sqlparse.CopyStmt) (*Result, error) {
	if e.Store == nil {
		return nil, errf(CodeCopyFailed, "no cloud store attached to this engine")
	}
	t, err := e.Catalog.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	prefix := strings.TrimPrefix(s.From, "store://")
	var keys []string
	if len(s.Files) > 0 {
		// Manifest COPY: ingest exactly the named objects, in manifest order,
		// resolved relative to the prefix. Used by the virtualizer's copy
		// scheduler to land already-uploaded files while acquisition is still
		// producing more under the same prefix.
		keys = make([]string, len(s.Files))
		for i, name := range s.Files {
			keys[i] = prefix + name
		}
	} else {
		var err error
		keys, err = e.Store.List(prefix)
		if err != nil {
			return nil, errf(CodeCopyFailed, "listing %q: %v", prefix, err)
		}
	}
	if format := s.Options["format"]; format != "" && format != "csv" {
		return nil, errf(CodeCopyFailed, "unsupported COPY format %q", format)
	}
	gzipAll := s.Options["gzip"] == "true"
	delim := ','
	if d := s.Options["delimiter"]; d != "" {
		delim = rune(d[0])
	}

	var newRows [][]Datum
	rowSeq := int64(0)
	for _, key := range keys {
		rc, err := e.Store.Get(key)
		if err != nil {
			return nil, errf(CodeCopyFailed, "reading %q: %v", key, err)
		}
		var r io.Reader = rc
		var zr *gzip.Reader
		if gzipAll || strings.HasSuffix(key, ".gz") {
			zr = gzPool.Get().(*gzip.Reader)
			if err := zr.Reset(rc); err != nil {
				gzPool.Put(zr)
				rc.Close()
				return nil, errf(CodeCopyFailed, "gunzip %q: %v", key, err)
			}
			r = zr
		}
		rows, err := e.parseCSVRows(t, r, delim, &rowSeq)
		if zr != nil {
			gzPool.Put(zr)
		}
		rc.Close()
		if err != nil {
			ee := AsError(err)
			ee.Msg = fmt.Sprintf("object %s: %s", key, ee.Msg)
			return nil, ee
		}
		newRows = append(newRows, rows...)
	}

	// Optional clustering: keep the table ordered by a column as batches
	// land, e.g. OPTIONS (order '__seq'). The virtualizer uses this so the
	// staging table's physical order matches the input row order even though
	// parallel FileWriters interleave the uploaded files — which keeps
	// order-sensitive legacy DML semantics (last update wins) intact. The
	// incoming batch is sorted, then merged into the already-clustered rows,
	// so a sequence of incremental manifest COPYs lands the exact physical
	// order one monolithic COPY of the same objects would.
	orderIdx := -1
	if orderCol := s.Options["order"]; orderCol != "" {
		orderIdx = t.ColIndex(orderCol)
		if orderIdx < 0 {
			return nil, errf(CodeNoSuchColumn, "COPY order column %q does not exist", orderCol)
		}
		var sortErr error
		sort.SliceStable(newRows, func(i, k int) bool {
			c, err := compareForSort(newRows[i][orderIdx], newRows[k][orderIdx])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if e.opts.EnforceUniqueness {
		if err := e.checkUniqueness(t, newRows, nil); err != nil {
			return nil, err
		}
	}
	if orderIdx >= 0 && len(t.rows) > 0 && len(newRows) > 0 {
		merged, err := mergeClustered(t.rows, newRows, orderIdx)
		if err != nil {
			return nil, err
		}
		t.rows = merged
	} else {
		t.rows = append(t.rows, newRows...)
	}
	return &Result{Activity: int64(len(newRows))}, nil
}

// mergeClustered merges a sorted incoming COPY batch into rows already
// clustered by the same column (earlier ordered COPYs keep that invariant).
// Existing rows win ties so repeated equal keys stay in arrival order.
func mergeClustered(existing, batch [][]Datum, idx int) ([][]Datum, error) {
	// Fast path: the batch strictly follows the existing tail (common when
	// uploads finish roughly in sequence order).
	c, err := compareForSort(existing[len(existing)-1][idx], batch[0][idx])
	if err != nil {
		return nil, err
	}
	if c <= 0 {
		return append(existing, batch...), nil
	}
	out := make([][]Datum, 0, len(existing)+len(batch))
	i, k := 0, 0
	for i < len(existing) && k < len(batch) {
		c, err := compareForSort(existing[i][idx], batch[k][idx])
		if err != nil {
			return nil, err
		}
		if c <= 0 {
			out = append(out, existing[i])
			i++
		} else {
			out = append(out, batch[k])
			k++
		}
	}
	out = append(out, existing[i:]...)
	out = append(out, batch[k:]...)
	return out, nil
}

func (e *Engine) parseCSVRows(t *Table, r io.Reader, delim rune, rowSeq *int64) ([][]Datum, error) {
	cr := csv.NewReader(r)
	cr.Comma = delim
	cr.FieldsPerRecord = len(t.Columns)
	cr.ReuseRecord = true
	var out [][]Datum
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			// A record the CSV grammar rejects is a row error; a reader
			// that fails (a torn gzip body) fails the COPY.
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				return nil, errf(CodeFieldCount, "malformed CSV: %v", err)
			}
			return nil, errf(CodeCopyFailed, "reading: %v", err)
		}
		*rowSeq++
		row := make([]Datum, len(t.Columns))
		for i, field := range rec {
			var d Datum
			if field == NullMarker {
				d = Null()
			} else {
				var err error
				d, err = castDatum(StringD(field), t.Columns[i].Type)
				if err != nil {
					ee := AsError(err)
					ee.Row = *rowSeq
					ee.Field = t.Columns[i].Name
					return nil, ee
				}
			}
			if t.Columns[i].NotNull && d.IsNull() {
				return nil, &Error{Code: CodeNotNull, Row: *rowSeq, Field: t.Columns[i].Name,
					Msg: "NULL value in NOT NULL column"}
			}
			row[i] = d
		}
		out = append(out, row)
	}
}
