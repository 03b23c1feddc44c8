package cdw

import (
	"fmt"
	"strings"

	"etlvirt/internal/sqlparse"
)

// resolveInsertColumns maps the statement's column list (or the full table
// when absent) to column indexes.
func resolveInsertColumns(t *Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		idx := make([]int, len(t.Columns))
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := t.ColIndex(c)
		if j < 0 {
			return nil, errf(CodeNoSuchColumn, "column %s does not exist in %s", c, t.Name)
		}
		idx[i] = j
	}
	return idx, nil
}

// coerceRow builds a full-width table row from values for the given column
// indexes, applying casts, defaults, NOT NULL and length checks. rowSeq is
// the 1-based input row for error attribution.
func (e *Engine) coerceRow(t *Table, colIdx []int, vals []Datum, rowSeq int64) ([]Datum, error) {
	if len(vals) != len(colIdx) {
		return nil, &Error{Code: CodeFieldCount, Row: rowSeq,
			Msg: fmt.Sprintf("%d values for %d columns", len(vals), len(colIdx))}
	}
	row := make([]Datum, len(t.Columns))
	provided := make([]bool, len(t.Columns))
	for i, j := range colIdx {
		d, err := castDatum(vals[i], t.Columns[j].Type)
		if err != nil {
			ee := AsError(err)
			ee.Row = rowSeq
			if ee.Field == "" {
				ee.Field = t.Columns[j].Name
			}
			return nil, ee
		}
		row[j] = d
		provided[j] = true
	}
	ctx := &evalCtx{eng: e}
	for j := range t.Columns {
		if !provided[j] {
			if t.Columns[j].Default != nil {
				d, err := e.eval(ctx, t.Columns[j].Default, &frame{})
				if err != nil {
					return nil, err
				}
				if d, err = castDatum(d, t.Columns[j].Type); err != nil {
					return nil, err
				}
				row[j] = d
			} else {
				row[j] = Null()
			}
		}
		if t.Columns[j].NotNull && row[j].IsNull() {
			return nil, &Error{Code: CodeNotNull, Row: rowSeq, Field: t.Columns[j].Name,
				Msg: fmt.Sprintf("NULL value in NOT NULL column %s", t.Columns[j].Name)}
		}
	}
	return row, nil
}

// keyString renders the values of the index columns for duplicate detection.
func keyString(row []Datum, idx []int) (string, bool) {
	var sb strings.Builder
	for _, j := range idx {
		if row[j].IsNull() {
			// NULLs never collide in unique constraints.
			return "", false
		}
		sb.WriteString(row[j].GroupKey())
		sb.WriteByte(0)
	}
	return sb.String(), true
}

// checkUniqueness rejects newRows that collide with existing rows or each
// other on the primary key or any unique constraint. Caller holds t.mu.
func (e *Engine) checkUniqueness(t *Table, newRows [][]Datum, seqs []int64) error {
	constraints := make([][]int, 0, 1+len(t.Unique))
	if len(t.PrimaryKey) > 0 {
		constraints = append(constraints, t.PrimaryKey)
	}
	constraints = append(constraints, t.Unique...)
	for _, idx := range constraints {
		seen := make(map[string]bool, len(t.rows)+len(newRows))
		for _, row := range t.rows {
			if k, ok := keyString(row, idx); ok {
				seen[k] = true
			}
		}
		for i, row := range newRows {
			k, ok := keyString(row, idx)
			if !ok {
				continue
			}
			if seen[k] {
				var seq int64
				if i < len(seqs) {
					seq = seqs[i]
				}
				return &Error{Code: CodeUniqueness, Row: seq,
					Field: t.Columns[idx[0]].Name,
					Msg:   "duplicate unique key value"}
			}
			seen[k] = true
		}
	}
	return nil
}

func (e *Engine) execInsert(s *sqlparse.InsertStmt) (*Result, error) {
	t, err := e.Catalog.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	colIdx, err := resolveInsertColumns(t, s.Columns)
	if err != nil {
		return nil, err
	}

	var newRows [][]Datum
	var seqs []int64
	if s.Select != nil {
		rows, _, err := e.execSelect(s.Select, nil, 0)
		if err != nil {
			return nil, err
		}
		for i, vals := range rows {
			row, err := e.coerceRow(t, colIdx, vals, int64(i+1))
			if err != nil {
				return nil, err
			}
			newRows = append(newRows, row)
			seqs = append(seqs, int64(i+1))
		}
	} else {
		ctx := &evalCtx{eng: e}
		for i, exprs := range s.Rows {
			vals := make([]Datum, len(exprs))
			for j, x := range exprs {
				d, err := e.eval(ctx, x, &frame{})
				if err != nil {
					ee := AsError(err)
					ee.Row = int64(i + 1)
					return nil, ee
				}
				vals[j] = d
			}
			row, err := e.coerceRow(t, colIdx, vals, int64(i+1))
			if err != nil {
				return nil, err
			}
			newRows = append(newRows, row)
			seqs = append(seqs, int64(i+1))
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if e.opts.EnforceUniqueness {
		if err := e.checkUniqueness(t, newRows, seqs); err != nil {
			return nil, err
		}
	}
	t.rows = append(t.rows, newRows...)
	return &Result{Activity: int64(len(newRows))}, nil
}

// joinFrame builds the one frame an UPDATE ... FROM or DELETE ... USING
// reuses for every target x source pair: the joined column list is the same
// for all pairs, and bind overwrites the row in place. Evaluation copies
// Datums out of the frame, so nothing outlives the pair it was bound for.
func joinFrame(target, source []frameCol) *frame {
	cols := make([]frameCol, 0, len(target)+len(source))
	cols = append(append(cols, target...), source...)
	return &frame{cols: cols, row: make([]Datum, len(cols))}
}

// bind points the frame at one target row joined with one source row.
func (f *frame) bind(target, source []Datum) {
	copy(f.row[copy(f.row, target):], source)
}

func (e *Engine) execUpdate(s *sqlparse.UpdateStmt) (*Result, error) {
	t, err := e.Catalog.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	tQual := strings.ToLower(s.Alias)
	if tQual == "" {
		tQual = strings.ToLower(s.Table.Name)
	}
	targetCols := make([]frameCol, len(t.Columns))
	for i, c := range t.Columns {
		targetCols[i] = frameCol{qual: tQual, name: strings.ToLower(c.Name)}
	}
	setIdx := make([]int, len(s.Set))
	for i, a := range s.Set {
		j := t.ColIndex(a.Column)
		if j < 0 {
			return nil, errf(CodeNoSuchColumn, "column %s does not exist in %s", a.Column, t.Name)
		}
		setIdx[i] = j
	}

	var src *rowSource
	var jf *frame
	if len(s.From) > 0 {
		if src, err = e.buildFrom(s.From, nil); err != nil {
			return nil, err
		}
		jf = joinFrame(targetCols, src.cols)
	}
	ctx := &evalCtx{eng: e}

	t.mu.Lock()
	defer t.mu.Unlock()
	updated := int64(0)
	newRows := make([][]Datum, len(t.rows))
	for ri, row := range t.rows {
		newRows[ri] = row
		var matchFrame *frame
		if src == nil {
			f := &frame{cols: targetCols, row: row}
			if s.Where != nil {
				d, err := e.eval(ctx, s.Where, f)
				if err != nil {
					return nil, err
				}
				if d.IsNull() || d.Kind != KBool || !d.Bool {
					continue
				}
			}
			matchFrame = f
			newRow, err := e.applyAssignments(ctx, t, s.Set, setIdx, row, matchFrame)
			if err != nil {
				return nil, err
			}
			newRows[ri] = newRow
			updated++
			continue
		}
		// Target row joined with each source row; every match applies, in
		// source order, so the last matching source row wins — the semantics
		// a tuple-at-a-time legacy apply would produce for ordered input.
		// Activity counts each match application (one per driving source
		// row), again matching the tuple-at-a-time accounting.
		newRow := row
		matched := false
		for _, srow := range src.rows {
			jf.bind(newRow, srow)
			if s.Where != nil {
				d, err := e.eval(ctx, s.Where, jf)
				if err != nil {
					return nil, err
				}
				if d.IsNull() || d.Kind != KBool || !d.Bool {
					continue
				}
			}
			matched = true
			updated++
			updatedRow, err := e.applyAssignments(ctx, t, s.Set, setIdx, newRow, jf)
			if err != nil {
				return nil, err
			}
			newRow = updatedRow
		}
		if matched {
			newRows[ri] = newRow
		}
	}
	if e.opts.EnforceUniqueness && updated > 0 {
		saved := t.rows
		t.rows = nil
		err := e.checkUniqueness(t, newRows, nil)
		t.rows = saved
		if err != nil {
			return nil, err
		}
	}
	t.rows = newRows
	return &Result{Activity: updated}, nil
}

// applyAssignments evaluates the SET clause in frame f and returns a copy of
// row with the assigned columns replaced, cast and constraint-checked.
func (e *Engine) applyAssignments(ctx *evalCtx, t *Table, set []sqlparse.Assignment, setIdx []int, row []Datum, f *frame) ([]Datum, error) {
	newRow := append([]Datum{}, row...)
	for i, a := range set {
		d, err := e.eval(ctx, a.Value, f)
		if err != nil {
			return nil, err
		}
		col := t.Columns[setIdx[i]]
		if d, err = castDatum(d, col.Type); err != nil {
			ee := AsError(err)
			if ee.Field == "" {
				ee.Field = col.Name
			}
			return nil, ee
		}
		if col.NotNull && d.IsNull() {
			return nil, &Error{Code: CodeNotNull, Field: col.Name,
				Msg: fmt.Sprintf("NULL value in NOT NULL column %s", col.Name)}
		}
		newRow[setIdx[i]] = d
	}
	return newRow, nil
}

func (e *Engine) execDelete(s *sqlparse.DeleteStmt) (*Result, error) {
	t, err := e.Catalog.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	tQual := strings.ToLower(s.Alias)
	if tQual == "" {
		tQual = strings.ToLower(s.Table.Name)
	}
	targetCols := make([]frameCol, len(t.Columns))
	for i, c := range t.Columns {
		targetCols[i] = frameCol{qual: tQual, name: strings.ToLower(c.Name)}
	}
	var src *rowSource
	var jf *frame
	if len(s.Using) > 0 {
		if src, err = e.buildFrom(s.Using, nil); err != nil {
			return nil, err
		}
		jf = joinFrame(targetCols, src.cols)
	}
	ctx := &evalCtx{eng: e}

	t.mu.Lock()
	defer t.mu.Unlock()
	var kept [][]Datum
	deleted := int64(0)
	for _, row := range t.rows {
		match := false
		if src == nil {
			if s.Where == nil {
				match = true
			} else {
				f := &frame{cols: targetCols, row: row}
				d, err := e.eval(ctx, s.Where, f)
				if err != nil {
					return nil, err
				}
				match = !d.IsNull() && d.Kind == KBool && d.Bool
			}
		} else {
			for _, srow := range src.rows {
				if s.Where == nil {
					match = true
					break
				}
				jf.bind(row, srow)
				d, err := e.eval(ctx, s.Where, jf)
				if err != nil {
					return nil, err
				}
				if !d.IsNull() && d.Kind == KBool && d.Bool {
					match = true
					break
				}
			}
		}
		if match {
			deleted++
		} else {
			kept = append(kept, row)
		}
	}
	t.rows = kept
	return &Result{Activity: deleted}, nil
}
