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
	ctx := &evalCtx{}
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
		rows, _, err := e.execSelectCols(s.Select, nil, 0)
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
		ctx := &evalCtx{}
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

// dmlScope is what an UPDATE or DELETE evaluates against: the target table
// under its alias and, for UPDATE ... FROM / DELETE ... USING, the
// materialized source (nil otherwise).
type dmlScope struct {
	t     *Table
	cols  []frameCol
	src   *rowSource
	where sqlparse.Expr
}

// newDMLScope builds the scope, pruning the source's scans by the WHERE.
func (e *Engine) newDMLScope(t *Table, alias string, from []sqlparse.TableExpr, where sqlparse.Expr) (*dmlScope, error) {
	sc := &dmlScope{t: t, cols: tableFrameCols(t, alias), where: where}
	if len(from) > 0 {
		var err error
		if sc.src, err = e.buildFrom(from, nil, e.planScans(from, where)); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// rowUpdate is one target row an UPDATE rewrites: its index and new image.
type rowUpdate struct {
	i   int
	row []Datum
}

func (e *Engine) execUpdate(s *sqlparse.UpdateStmt) (*Result, error) {
	t, err := e.Catalog.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	setIdx := make([]int, len(s.Set))
	for i, a := range s.Set {
		j := t.ColIndex(a.Column)
		if j < 0 {
			return nil, errf(CodeNoSuchColumn, "column %s does not exist in %s", a.Column, t.Name)
		}
		setIdx[i] = j
	}
	sc, err := e.newDMLScope(t, s.Alias, s.From, s.Where)
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{}

	t.mu.Lock()
	defer t.mu.Unlock()
	ups, updated, hashed, err := e.updateHashed(ctx, sc, s.Set, setIdx)
	if !hashed {
		ups, updated, err = e.updateNested(ctx, sc, s.Set, setIdx)
	}
	if err != nil {
		return nil, err
	}
	if e.opts.EnforceUniqueness && updated > 0 {
		newRows := append([][]Datum(nil), t.rows...)
		for _, u := range ups {
			newRows[u.i] = u.row
		}
		saved := t.rows
		t.rows = nil
		err := e.checkUniqueness(t, newRows, nil)
		t.rows = saved
		if err != nil {
			return nil, err
		}
	}
	// Scans copy the row slice under the read lock, so rewriting it in
	// place under the write lock is invisible to them.
	for _, u := range ups {
		t.rows[u.i] = u.row
	}
	return &Result{Activity: updated}, nil
}

// updateNested is the tuple-at-a-time reference for UPDATE: every target
// row, joined with every source row when there is a FROM. Caller holds
// sc.t.mu; nothing is mutated.
func (e *Engine) updateNested(ctx *evalCtx, sc *dmlScope, set []sqlparse.Assignment, setIdx []int) ([]rowUpdate, int64, error) {
	var ups []rowUpdate
	updated := int64(0)
	if sc.src == nil {
		for ri, row := range sc.t.rows {
			f := &frame{cols: sc.cols, row: row}
			if sc.where != nil {
				d, err := e.eval(ctx, sc.where, f)
				if err != nil {
					return nil, 0, err
				}
				if d.IsNull() || d.Kind != KBool || !d.Bool {
					continue
				}
			}
			newRow, err := e.applyAssignments(ctx, sc.t, set, setIdx, row, f)
			if err != nil {
				return nil, 0, err
			}
			ups = append(ups, rowUpdate{ri, newRow})
			updated++
		}
		return ups, updated, nil
	}
	jf := joinFrame(sc.cols, sc.src.cols)
	for ri, row := range sc.t.rows {
		// Target row joined with each source row; every match applies, in
		// source order, so the last matching source row wins — the semantics
		// a tuple-at-a-time legacy apply would produce for ordered input.
		// Activity counts each match application (one per driving source
		// row), again matching the tuple-at-a-time accounting.
		newRow := row
		matched := false
		for _, srow := range sc.src.rows {
			jf.bind(newRow, srow)
			if sc.where != nil {
				d, err := e.eval(ctx, sc.where, jf)
				if err != nil {
					return nil, 0, err
				}
				if d.IsNull() || d.Kind != KBool || !d.Bool {
					continue
				}
			}
			matched = true
			updated++
			updatedRow, err := e.applyAssignments(ctx, sc.t, set, setIdx, newRow, jf)
			if err != nil {
				return nil, 0, err
			}
			newRow = updatedRow
		}
		if matched {
			ups = append(ups, rowUpdate{ri, newRow})
		}
	}
	return ups, updated, nil
}

// updateHashed is UPDATE ... FROM as a hash join: the filtered source (the
// staged batch, the small side) is indexed on the WHERE's equality conjuncts
// and the target streamed through it, so the statement costs O(target +
// source) rather than O(target x source). Matches apply in source order, the
// WHERE re-checked on each, with the nested loop's last-match-wins result,
// Activity count and first error. hashed is false — nothing evaluated that
// the caller keeps — when only the nested loop can promise that; beyond
// planEquiJoin's conditions, when the WHERE reads a column SET assigns
// (the nested loop re-tests later matches against the updated row).
// Caller holds sc.t.mu; nothing is mutated.
func (e *Engine) updateHashed(ctx *evalCtx, sc *dmlScope, set []sqlparse.Assignment, setIdx []int) (ups []rowUpdate, updated int64, hashed bool, err error) {
	if readsAssigned(sc.where, sc.cols, setIdx) {
		return nil, 0, false, nil
	}
	p, ok := e.hashSource(sc)
	if !ok {
		return nil, 0, false, nil
	}
	tf := &frame{cols: sc.cols}
	jf := joinFrame(sc.cols, sc.src.cols)
	for ri, row := range sc.t.rows {
		tf.row = row
		cand, ok := e.hashProbe(ctx, p, tf)
		if !ok {
			return nil, 0, false, nil
		}
		newRow := row
		matched := false
		for _, si := range cand {
			jf.bind(newRow, sc.src.rows[si])
			match, err := e.isTrue(ctx, sc.where, jf)
			if err != nil {
				return nil, 0, false, nil
			}
			if !match {
				continue
			}
			matched = true
			updated++
			if newRow, err = e.applyAssignments(ctx, sc.t, set, setIdx, newRow, jf); err != nil {
				return nil, 0, true, err
			}
		}
		if matched {
			ups = append(ups, rowUpdate{ri, newRow})
		}
	}
	return ups, updated, true, nil
}

// hashSource plans a joined UPDATE or DELETE for hashing — target probed,
// source built — and indexes the source. false sends the statement to the
// nested loop.
func (e *Engine) hashSource(sc *dmlScope) (*equiJoin, bool) {
	if sc.src == nil || sc.where == nil {
		return nil, false
	}
	p, ok := planEquiJoin(sc.where, sc.cols, sc.src.cols, false)
	return p, ok && e.hashBuild(p, sc.src.cols, sc.src.rows, nil)
}

// readsAssigned reports whether pred may read a target column that setIdx
// assigns.
func readsAssigned(pred sqlparse.Expr, cols []frameCol, setIdx []int) bool {
	read := false
	sqlparse.WalkExprs(&sqlparse.SelectStmt{Where: pred}, func(x sqlparse.Expr) {
		if c, ok := x.(*sqlparse.ColRef); ok {
			for _, j := range setIdx {
				read = read || cols[j].matches(c.Qualifier, c.Name)
			}
		}
	})
	return read
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
	sc, err := e.newDMLScope(t, s.Alias, s.Using, s.Where)
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{}

	t.mu.Lock()
	defer t.mu.Unlock()
	doomed, hashed := e.deleteHashed(ctx, sc)
	if !hashed {
		if doomed, err = e.deleteNested(ctx, sc); err != nil {
			return nil, err
		}
	}
	if len(doomed) > 0 {
		// In place, as in execUpdate.
		kept := t.rows[:0]
		for ri, row := range t.rows {
			if len(doomed) > 0 && doomed[0] == ri {
				doomed = doomed[1:]
				continue
			}
			kept = append(kept, row)
		}
		deleted := len(t.rows) - len(kept)
		clear(t.rows[len(kept):])
		t.rows = kept
		return &Result{Activity: int64(deleted)}, nil
	}
	return &Result{}, nil
}

// deleteNested is the tuple-at-a-time reference for DELETE: it returns the
// indexes, ascending, of the target rows the WHERE matches — against any
// source row when there is a USING. Caller holds sc.t.mu; nothing is
// mutated.
func (e *Engine) deleteNested(ctx *evalCtx, sc *dmlScope) ([]int, error) {
	var doomed []int
	var jf *frame
	if sc.src != nil {
		jf = joinFrame(sc.cols, sc.src.cols)
	}
	for ri, row := range sc.t.rows {
		match := false
		if sc.src == nil {
			if sc.where == nil {
				match = true
			} else {
				f := &frame{cols: sc.cols, row: row}
				d, err := e.eval(ctx, sc.where, f)
				if err != nil {
					return nil, err
				}
				match = !d.IsNull() && d.Kind == KBool && d.Bool
			}
		} else {
			for _, srow := range sc.src.rows {
				if sc.where == nil {
					match = true
					break
				}
				jf.bind(row, srow)
				d, err := e.eval(ctx, sc.where, jf)
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
			doomed = append(doomed, ri)
		}
	}
	return doomed, nil
}

// deleteHashed is DELETE ... USING as a hash join, the counterpart of
// updateHashed: a target row goes when some indexed source row with its key
// passes the WHERE. It returns deleteNested's answer, or hashed=false when
// only the nested loop can promise that (see planEquiJoin).
func (e *Engine) deleteHashed(ctx *evalCtx, sc *dmlScope) (doomed []int, hashed bool) {
	p, ok := e.hashSource(sc)
	if !ok {
		return nil, false
	}
	tf := &frame{cols: sc.cols}
	jf := joinFrame(sc.cols, sc.src.cols)
	for ri, row := range sc.t.rows {
		tf.row = row
		cand, ok := e.hashProbe(ctx, p, tf)
		if !ok {
			return nil, false
		}
		for _, si := range cand {
			jf.bind(row, sc.src.rows[si])
			match, err := e.isTrue(ctx, sc.where, jf)
			if err != nil {
				return nil, false
			}
			if match {
				doomed = append(doomed, ri)
				break
			}
		}
	}
	return doomed, true
}
