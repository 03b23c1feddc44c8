package cdw

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"etlvirt/internal/sqlparse"
)

// rowSource is an intermediate relation during SELECT execution: a column
// frame plus materialized rows. colTypes carries the declared type for
// columns that originate in base tables (nil entry when unknown).
type rowSource struct {
	cols     []frameCol
	colTypes []*ColType
	rows     [][]Datum
}

// execSelectTop runs a SELECT as a top-level statement.
func (e *Engine) execSelectTop(s *sqlparse.SelectStmt) (*Result, error) {
	rows, cols, err := e.execSelectCols(s, nil, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: rows, Activity: int64(len(rows))}, nil
}

// execSelectCols runs a (sub)query and returns its rows. maxRows > 0 stops
// early once that many rows are produced (used by EXISTS and scalar
// subqueries); it is only a shortcut when the query has no ORDER
// BY/aggregation.
func (e *Engine) execSelectCols(s *sqlparse.SelectStmt, outer *frame, maxRows int) ([][]Datum, []ResultCol, error) {
	if s.Union != nil {
		return e.execUnion(s, outer)
	}
	src, err := e.buildFrom(s.From, outer, e.planScans(s.From, s.Where))
	if err != nil {
		return nil, nil, err
	}
	ctx := &evalCtx{}

	if s.Where != nil {
		var semi map[*sqlparse.ExistsExpr][]bool
		if outer == nil {
			semi = e.semiJoins(s.Where, src)
		}
		if src.rows, err = e.whereFilter(s.Where, src, outer, semi); err != nil {
			return nil, nil, err
		}
	}

	// aggregate detection
	aggCalls := collectAggregates(s)
	grouped := len(s.GroupBy) > 0 || len(aggCalls) > 0

	type outRow struct {
		frame *frame
		ctx   *evalCtx
	}
	var work []outRow
	if grouped {
		groups, err := e.groupRows(ctx, s, src, outer, aggCalls)
		if err != nil {
			return nil, nil, err
		}
		for _, g := range groups {
			work = append(work, outRow{frame: g.frame, ctx: g.ctx})
		}
	} else {
		for _, row := range src.rows {
			f := &frame{cols: src.cols, row: row, parent: outer}
			work = append(work, outRow{frame: f, ctx: ctx})
		}
	}

	// HAVING (non-grouped HAVING is rejected at group construction)
	if s.Having != nil {
		if !grouped {
			return nil, nil, errf(CodeSyntax, "HAVING requires GROUP BY or aggregates")
		}
		kept := work[:0:0]
		for _, w := range work {
			d, err := e.eval(w.ctx, s.Having, w.frame)
			if err != nil {
				return nil, nil, err
			}
			if !d.IsNull() && d.Kind == KBool && d.Bool {
				kept = append(kept, w)
			}
		}
		work = kept
	}

	// expand projection items
	items, err := expandStars(s.Items, src)
	if err != nil {
		return nil, nil, err
	}
	outCols := make([]ResultCol, len(items))
	for i, it := range items {
		outCols[i] = ResultCol{Name: outputName(it, i)}
		if ct := declaredType(it.Expr, src); ct != nil {
			outCols[i].Type = *ct
		}
	}

	aliasCols := make([]frameCol, len(items))
	for i := range items {
		aliasCols[i] = frameCol{name: strings.ToLower(outCols[i].Name)}
	}

	type sortableRow struct {
		out  []Datum
		keys []Datum
	}
	var produced []sortableRow
	earlyStop := maxRows > 0 && len(s.OrderBy) == 0 && !grouped && !s.Distinct

	for _, w := range work {
		out := make([]Datum, len(items))
		for i, it := range items {
			d, err := e.eval(w.ctx, it.Expr, w.frame)
			if err != nil {
				return nil, nil, err
			}
			out[i] = d
			if outCols[i].Type.Kind == KNull && d.Kind != KNull {
				outCols[i].Type = inferType(d)
			}
		}
		sr := sortableRow{out: out}
		if len(s.OrderBy) > 0 {
			// order keys see the source frame plus output aliases
			af := &frame{cols: aliasCols, row: out, parent: w.frame}
			for _, ob := range s.OrderBy {
				if ord, ok := orderOrdinal(ob.Expr, len(out)); ok {
					sr.keys = append(sr.keys, out[ord])
					continue
				}
				k, err := e.eval(w.ctx, ob.Expr, af)
				if err != nil {
					return nil, nil, err
				}
				sr.keys = append(sr.keys, k)
			}
		}
		produced = append(produced, sr)
		if earlyStop && len(produced) >= maxRows {
			break
		}
	}

	if s.Distinct {
		seen := make(map[string]bool, len(produced))
		dedup := produced[:0:0]
		for _, sr := range produced {
			var kb strings.Builder
			for _, d := range sr.out {
				kb.WriteString(d.GroupKey())
				kb.WriteByte(0)
			}
			if !seen[kb.String()] {
				seen[kb.String()] = true
				dedup = append(dedup, sr)
			}
		}
		produced = dedup
	}

	if len(s.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(produced, func(i, j int) bool {
			for k, ob := range s.OrderBy {
				a, b := produced[i].keys[k], produced[j].keys[k]
				c, err := compareForSort(a, b)
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, nil, sortErr
		}
	}

	if s.Limit != nil && int64(len(produced)) > *s.Limit {
		produced = produced[:*s.Limit]
	}

	rows := make([][]Datum, len(produced))
	for i, sr := range produced {
		rows[i] = sr.out
	}
	for i := range outCols {
		if outCols[i].Type.Kind == KNull {
			outCols[i].Type = ColType{Kind: KString}
		}
	}
	return rows, outCols, nil
}

// whereFilter returns the rows of src for which where is TRUE. semi answers
// hashed EXISTS subqueries for each row of src; without an entry an EXISTS
// runs as a correlated subquery per row.
func (e *Engine) whereFilter(where sqlparse.Expr, src *rowSource, outer *frame, semi map[*sqlparse.ExistsExpr][]bool) ([][]Datum, error) {
	ctx := &evalCtx{semi: semi}
	f := &frame{cols: src.cols, parent: outer}
	filtered := src.rows[:0:0]
	for i, row := range src.rows {
		ctx.row, f.row = i, row
		d, err := e.eval(ctx, where, f)
		if err != nil {
			return nil, err
		}
		if !d.IsNull() && d.Kind == KBool && d.Bool {
			filtered = append(filtered, row)
		} else if !d.IsNull() && d.Kind != KBool {
			return nil, errf(CodeTypeMismatch, "WHERE must be a boolean")
		}
	}
	return filtered, nil
}

// execUnion evaluates a UNION ALL chain: each branch runs independently,
// rows concatenate, and the head's ORDER BY / LIMIT (hoisted there by the
// parser) apply to the combined result. ORDER BY keys resolve against the
// output column names of the first branch.
func (e *Engine) execUnion(s *sqlparse.SelectStmt, outer *frame) ([][]Datum, []ResultCol, error) {
	var rows [][]Datum
	var cols []ResultCol
	for b := s; b != nil; b = b.Union {
		branch := *b // shallow copy: strip chain and combined clauses
		branch.Union = nil
		if b == s {
			branch.OrderBy = nil
			branch.Limit = nil
		}
		bRows, bCols, err := e.execSelectCols(&branch, outer, 0)
		if err != nil {
			return nil, nil, err
		}
		if cols == nil {
			cols = bCols
		} else if len(bCols) != len(cols) {
			return nil, nil, errf(CodeSyntax, "UNION ALL branches have %d and %d columns", len(cols), len(bCols))
		}
		rows = append(rows, bRows...)
	}

	if len(s.OrderBy) > 0 {
		aliasCols := make([]frameCol, len(cols))
		for i, c := range cols {
			aliasCols[i] = frameCol{name: strings.ToLower(c.Name)}
		}
		ctx := &evalCtx{}
		keys := make([][]Datum, len(rows))
		for i, row := range rows {
			f := &frame{cols: aliasCols, row: row, parent: outer}
			for _, ob := range s.OrderBy {
				if ord, ok := orderOrdinal(ob.Expr, len(row)); ok {
					keys[i] = append(keys[i], row[ord])
					continue
				}
				k, err := e.eval(ctx, ob.Expr, f)
				if err != nil {
					return nil, nil, err
				}
				keys[i] = append(keys[i], k)
			}
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		sort.SliceStable(idx, func(a, b int) bool {
			for k, ob := range s.OrderBy {
				c, err := compareForSort(keys[idx[a]][k], keys[idx[b]][k])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, nil, sortErr
		}
		sorted := make([][]Datum, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if s.Limit != nil && int64(len(rows)) > *s.Limit {
		rows = rows[:*s.Limit]
	}
	return rows, cols, nil
}

// orderOrdinal recognizes the SQL ordinal form ORDER BY n (1-based output
// column position) and returns the 0-based index.
func orderOrdinal(x sqlparse.Expr, ncols int) (int, bool) {
	lit, ok := x.(*sqlparse.Literal)
	if !ok || lit.Kind != sqlparse.LitInt {
		return 0, false
	}
	if lit.Int < 1 || lit.Int > int64(ncols) {
		return 0, false
	}
	return int(lit.Int) - 1, true
}

// compareForSort orders datums treating NULL as smallest.
func compareForSort(a, b Datum) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0, AsError(err)
	}
	return c, nil
}

func inferType(d Datum) ColType {
	switch d.Kind {
	case KDecimal:
		return ColType{Kind: KDecimal, Precision: 18, Scale: int(d.Scale)}
	default:
		return ColType{Kind: d.Kind}
	}
}

func outputName(it sqlparse.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*sqlparse.ColRef); ok {
		return c.Name
	}
	if fc, ok := it.Expr.(*sqlparse.FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return fmt.Sprintf("col%d", i+1)
}

func declaredType(x sqlparse.Expr, src *rowSource) *ColType {
	c, ok := x.(*sqlparse.ColRef)
	if !ok {
		return nil
	}
	qual := strings.ToLower(c.Qualifier)
	name := strings.ToLower(c.Name)
	for i, fc := range src.cols {
		if fc.name == name && (qual == "" || fc.qual == qual) {
			return src.colTypes[i]
		}
	}
	return nil
}

func expandStars(items []sqlparse.SelectItem, src *rowSource) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		qual := strings.ToLower(it.StarTable)
		matched := false
		for _, fc := range src.cols {
			if qual != "" && fc.qual != qual {
				continue
			}
			matched = true
			out = append(out, sqlparse.SelectItem{
				Expr:  &sqlparse.ColRef{Qualifier: fc.qual, Name: fc.name},
				Alias: fc.name,
			})
		}
		if !matched {
			if qual != "" {
				return nil, errf(CodeNoSuchObject, "unknown table %s in %s.*", it.StarTable, it.StarTable)
			}
			return nil, errf(CodeSyntax, "SELECT * with no FROM clause")
		}
	}
	return out, nil
}

// buildFrom materializes the FROM clause into a rowSource. Multiple items
// combine as a cross product. plan prunes the scans of the base tables it
// names (see planScans); nil scans every table in full.
func (e *Engine) buildFrom(from []sqlparse.TableExpr, outer *frame, plan scanPlan) (*rowSource, error) {
	if len(from) == 0 {
		return &rowSource{rows: [][]Datum{{}}}, nil
	}
	acc, err := e.buildTableExpr(from[0], outer, plan)
	if err != nil {
		return nil, err
	}
	for _, te := range from[1:] {
		right, err := e.buildTableExpr(te, outer, plan)
		if err != nil {
			return nil, err
		}
		acc = crossProduct(acc, right)
	}
	return acc, nil
}

func (e *Engine) buildTableExpr(te sqlparse.TableExpr, outer *frame, plan scanPlan) (*rowSource, error) {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		ps := plan[t]
		if ps == nil {
			tbl, err := e.Catalog.Lookup(t.Table)
			if err != nil {
				return nil, err
			}
			ps = &prunedScan{tbl: tbl}
		}
		src := &rowSource{cols: tableFrameCols(ps.tbl, t.Alias)}
		for i := range ps.tbl.Columns {
			ct := ps.tbl.Columns[i].Type
			src.colTypes = append(src.colTypes, &ct)
		}
		src.rows = ps.tbl.scan(ps.ranges)
		e.rowsScanned.Add(int64(len(src.rows)))
		return src, nil

	case *sqlparse.SubqueryTable:
		rows, cols, err := e.execSelectCols(t.Select, outer, 0)
		if err != nil {
			return nil, err
		}
		src := &rowSource{rows: rows}
		qual := strings.ToLower(t.Alias)
		for _, c := range cols {
			src.cols = append(src.cols, frameCol{qual: qual, name: strings.ToLower(c.Name)})
			ct := c.Type
			src.colTypes = append(src.colTypes, &ct)
		}
		return src, nil

	case *sqlparse.Join:
		left, err := e.buildTableExpr(t.Left, outer, plan)
		if err != nil {
			return nil, err
		}
		right, err := e.buildTableExpr(t.Right, outer, plan)
		if err != nil {
			return nil, err
		}
		return e.joinSources(t, left, right, outer)

	default:
		return nil, errf(CodeUnsupported, "unsupported table expression %T", te)
	}
}

func crossProduct(l, r *rowSource) *rowSource {
	out := &rowSource{
		cols:     append(append([]frameCol{}, l.cols...), r.cols...),
		colTypes: append(append([]*ColType{}, l.colTypes...), r.colTypes...),
	}
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			row := make([]Datum, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func (e *Engine) joinSources(j *sqlparse.Join, l, r *rowSource, outer *frame) (*rowSource, error) {
	out := &rowSource{
		cols:     append(append([]frameCol{}, l.cols...), r.cols...),
		colTypes: append(append([]*ColType{}, l.colTypes...), r.colTypes...),
	}
	if j.Type == sqlparse.JoinCross {
		return crossProduct(l, r), nil
	}
	if e.hashJoin(j, l, r, out, outer) {
		return out, nil
	}
	ctx := &evalCtx{}
	nullsRight := make([]Datum, len(r.cols))
	for _, lr := range l.rows {
		matched := false
		for _, rr := range r.rows {
			row := make([]Datum, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			f := &frame{cols: out.cols, row: row, parent: outer}
			d, err := e.eval(ctx, j.On, f)
			if err != nil {
				return nil, err
			}
			if !d.IsNull() && d.Kind == KBool && d.Bool {
				matched = true
				out.rows = append(out.rows, row)
			}
		}
		if !matched && j.Type == sqlparse.JoinLeft {
			row := make([]Datum, 0, len(lr)+len(nullsRight))
			row = append(row, lr...)
			row = append(row, nullsRight...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// hashJoin executes an equi-join by hashing the right side (see equiJoin)
// and streaming the left side through it, emitting pairs in the nested
// loop's left-major, right-minor order. It reports false, having emitted
// nothing, when the nested loop must run instead.
func (e *Engine) hashJoin(j *sqlparse.Join, l, r *rowSource, out *rowSource, outer *frame) bool {
	p, ok := planEquiJoin(j.On, l.cols, r.cols, false)
	if !ok || !e.hashBuild(p, r.cols, r.rows, outer) {
		return false
	}
	ctx := &evalCtx{}
	lf := &frame{cols: l.cols, parent: outer}
	var rows [][]Datum
	nullsRight := make([]Datum, len(r.cols))
	for _, lr := range l.rows {
		lf.row = lr
		cand, ok := e.hashProbe(ctx, p, lf)
		if !ok {
			return false
		}
		matched := false
		for _, ri := range cand {
			row := make([]Datum, 0, len(lr)+len(r.cols))
			row = append(append(row, lr...), r.rows[ri]...)
			match, err := e.isTrue(ctx, j.On, &frame{cols: out.cols, row: row, parent: outer})
			if err != nil {
				return false
			}
			if match {
				matched = true
				rows = append(rows, row)
			}
		}
		if !matched && j.Type == sqlparse.JoinLeft {
			row := make([]Datum, 0, len(lr)+len(nullsRight))
			rows = append(rows, append(append(row, lr...), nullsRight...))
		}
	}
	out.rows = rows
	return true
}

// An equiJoin is a conjunctive predicate over two row sources split for
// hashing: the build side is indexed by its key expressions and the probe
// side streamed through the index. Each key pairs a probe-side expression
// with a build-side one; every other conjunct reads one side only and runs
// as that side's filter. Hashing only selects candidate pairs — each
// candidate is re-checked with the full predicate — so the hash paths stay
// byte-identical to the nested loop as long as no pair the hash skips could
// have raised an error there. That is what the plan and the pre-passes
// prove, and why any doubt (no key, a conjunct reading both sides, a
// subquery, an evaluation error, a key-class conflict) falls back.
type equiJoin struct {
	probeKeys, buildKeys     []sqlparse.Expr
	probeFilter, buildFilter []sqlparse.Expr
	enc                      keyEncoder
	index                    map[string][]int // key encoding -> build rows, in order
}

// planEquiJoin splits pred for hashing, or reports false when it has no
// equality between the two sides or a conjunct that reads both outside one.
// nested says the probe side is the inner scope of a correlated subquery,
// whose columns shadow the build side's; otherwise the sources share one
// joined scope, where a name both sides have is ambiguous.
func planEquiJoin(pred sqlparse.Expr, probe, build []frameCol, nested bool) (*equiJoin, bool) {
	p := &equiJoin{}
	for _, c := range splitConjuncts(pred) {
		if eq, ok := c.(*sqlparse.BinaryExpr); ok && eq.Op == "=" {
			l, r := classifySide(eq.L, probe, build, nested), classifySide(eq.R, probe, build, nested)
			if l == sideProbe && r == sideBuild {
				p.probeKeys, p.buildKeys = append(p.probeKeys, eq.L), append(p.buildKeys, eq.R)
				continue
			}
			if l == sideBuild && r == sideProbe {
				p.probeKeys, p.buildKeys = append(p.probeKeys, eq.R), append(p.buildKeys, eq.L)
				continue
			}
		}
		switch classifySide(c, probe, build, nested) {
		case sideProbe:
			p.probeFilter = append(p.probeFilter, c)
		case sideBuild, sideNone:
			p.buildFilter = append(p.buildFilter, c)
		default:
			return nil, false
		}
	}
	return p, len(p.probeKeys) > 0
}

// hashBuild indexes the build rows that pass p's build filters under their
// key encoding, in row order; rows with a NULL key part never match and are
// left out. It reports false when the nested loop must run instead. Keys
// and filters are evaluated on every row — filtered out or not — because
// the nested loop may evaluate them there too.
func (e *Engine) hashBuild(p *equiJoin, cols []frameCol, rows [][]Datum, parent *frame) bool {
	ctx := &evalCtx{}
	f := &frame{cols: cols, parent: parent}
	p.index = make(map[string][]int)
	for i, row := range rows {
		f.row = row
		pass, ok := e.filtersPass(ctx, p.buildFilter, f)
		if !ok {
			return false
		}
		null, ok := p.enc.encode(e, ctx, p.buildKeys, f)
		if !ok {
			return false
		}
		if pass && !null {
			p.index[string(p.enc.buf)] = append(p.index[string(p.enc.buf)], i)
		}
	}
	return true
}

// hashProbe evaluates p's probe filters and keys for the row bound in f and
// returns the indexed build rows whose key matches, in build order. It
// reports false when the nested loop must run instead. It allocates nothing.
func (e *Engine) hashProbe(ctx *evalCtx, p *equiJoin, f *frame) ([]int, bool) {
	pass, ok := e.filtersPass(ctx, p.probeFilter, f)
	if !ok {
		return nil, false
	}
	null, ok := p.enc.encode(e, ctx, p.probeKeys, f)
	if !ok || !pass || null {
		return nil, ok
	}
	return p.index[string(p.enc.buf)], true
}

// filtersPass reports whether every filter is TRUE in f. All are evaluated,
// so an error any of them could raise in the nested loop is seen; ok is
// false on an error or a non-boolean value (which AND rejects).
func (e *Engine) filtersPass(ctx *evalCtx, filters []sqlparse.Expr, f *frame) (pass, ok bool) {
	pass = true
	for _, x := range filters {
		d, err := e.eval(ctx, x, f)
		if err != nil || (!d.IsNull() && d.Kind != KBool) {
			return false, false
		}
		pass = pass && !d.IsNull() && d.Bool
	}
	return pass, true
}

// isTrue evaluates a predicate in f.
func (e *Engine) isTrue(ctx *evalCtx, pred sqlparse.Expr, f *frame) (bool, error) {
	d, err := e.eval(ctx, pred, f)
	if err != nil {
		return false, err
	}
	return !d.IsNull() && d.Kind == KBool && d.Bool, nil
}

// keyEncoder renders a row's equi-join key into one byte string. Each key
// part is tagged with its kind class, and numerics are normalised through
// float64 — as Compare equates mixed numeric kinds — with -0 folded into 0,
// so values Compare calls equal always encode alike. The converse can fail
// (BIGINTs beyond 2^53 share a float64), which the full-predicate re-check
// of every candidate pair absorbs. classes pins the class each key position
// has shown, across both sides: a second class is a comparison the nested
// loop would coerce (DATE against VARCHAR) or fail on, so encode refuses it.
type keyEncoder struct {
	buf     []byte
	classes []byte
}

// encode evaluates keys in f into enc.buf, reusing its storage. null reports
// a NULL key part; ok is false on an evaluation error, a NaN or a class
// conflict.
func (enc *keyEncoder) encode(e *Engine, ctx *evalCtx, keys []sqlparse.Expr, f *frame) (null, ok bool) {
	if enc.classes == nil {
		enc.classes = make([]byte, len(keys))
	}
	enc.buf = enc.buf[:0]
	for i, x := range keys {
		d, err := e.eval(ctx, x, f)
		if err != nil {
			return false, false
		}
		if d.IsNull() {
			null = true
			continue
		}
		cls := keyClass(d)
		if cls == 0 || (enc.classes[i] != 0 && enc.classes[i] != cls) {
			return false, false
		}
		enc.classes[i] = cls
		enc.buf = append(enc.buf, cls)
		switch cls {
		case 'n':
			v := d.asFloat()
			if v == 0 {
				v = 0 // -0 == 0
			}
			enc.buf = binary.LittleEndian.AppendUint64(enc.buf, math.Float64bits(v))
		case 's':
			enc.buf = append(binary.AppendUvarint(enc.buf, uint64(len(d.S))), d.S...)
		case 'b':
			enc.buf = append(binary.AppendUvarint(enc.buf, uint64(len(d.B))), d.B...)
		case 'B':
			enc.buf = append(enc.buf, byte(boolToInt(d.Bool)))
		default:
			enc.buf = binary.LittleEndian.AppendUint64(enc.buf, uint64(d.I))
		}
	}
	return null, true
}

// keyClass names the group of kinds Compare orders among themselves without
// coercion, or 0 for a value no hash may stand in for (NaN, which Compare
// calls equal to every number).
func keyClass(d Datum) byte {
	switch d.Kind {
	case KInt, KDecimal:
		return 'n'
	case KFloat:
		if math.IsNaN(d.F) {
			return 0
		}
		return 'n'
	case KString:
		return 's'
	case KBytes:
		return 'b'
	case KBool:
		return 'B'
	case KDate:
		return 'd'
	case KTime:
		return 't'
	case KTimestamp:
		return 'T'
	}
	return 0
}

// semiJoins answers each hashable [NOT] EXISTS conjunct of a WHERE for all
// of src's rows at once (see semiJoin). Conjuncts it cannot answer are left
// to run as correlated subqueries.
func (e *Engine) semiJoins(where sqlparse.Expr, src *rowSource) map[*sqlparse.ExistsExpr][]bool {
	var out map[*sqlparse.ExistsExpr][]bool
	for _, c := range splitConjuncts(where) {
		for {
			u, ok := c.(*sqlparse.UnaryExpr)
			if !ok || u.Op != "NOT" {
				break
			}
			c = u.X
		}
		ex, ok := c.(*sqlparse.ExistsExpr)
		if !ok {
			continue
		}
		if hit, ok := e.semiJoin(ex.Sub, src); ok {
			if out == nil {
				out = make(map[*sqlparse.ExistsExpr][]bool)
			}
			out[ex] = hit
		}
	}
	return out
}

// semiJoin evaluates EXISTS (sub) for every row of src as a hash semi-join:
// the outer rows are indexed on the subquery's equality conjuncts, then the
// inner table is streamed once under its read lock — no snapshot copy — and
// each inner row that hashes to an outer row still unanswered is re-checked
// with the subquery's WHERE. Only a single-table subquery whose result can
// be nothing but "some row passed WHERE" qualifies; it reports false when
// the correlated rescan must run instead.
func (e *Engine) semiJoin(sub *sqlparse.SelectStmt, src *rowSource) ([]bool, bool) {
	if sub.Union != nil || len(sub.GroupBy) > 0 || sub.Having != nil || len(sub.OrderBy) > 0 ||
		sub.Limit != nil || sub.Where == nil || len(sub.From) != 1 {
		return nil, false
	}
	for _, it := range sub.Items {
		// Only the first qualifying row is projected; a literal cannot fail there.
		if lit, ok := it.Expr.(*sqlparse.Literal); it.Star || !ok || lit.Kind == sqlparse.LitDate {
			return nil, false
		}
	}
	ref, ok := sub.From[0].(*sqlparse.TableRef)
	if !ok {
		return nil, false
	}
	tbl, err := e.Catalog.Lookup(ref.Table)
	if err != nil {
		return nil, false
	}
	innerCols := tableFrameCols(tbl, ref.Alias)
	p, ok := planEquiJoin(sub.Where, innerCols, src.cols, true)
	if !ok || !e.hashBuild(p, src.cols, src.rows, nil) {
		return nil, false
	}
	ctx := &evalCtx{}
	of := &frame{cols: src.cols}
	inner := &frame{cols: innerCols}
	joined := &frame{cols: innerCols, parent: of}
	hit := make([]bool, len(src.rows))
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for _, row := range tbl.rows {
		inner.row = row
		cand, ok := e.hashProbe(ctx, p, inner)
		if !ok {
			return nil, false
		}
		for _, o := range cand {
			if hit[o] {
				continue
			}
			of.row, joined.row = src.rows[o], row
			match, err := e.isTrue(ctx, sub.Where, joined)
			if err != nil {
				return nil, false
			}
			hit[o] = match
		}
	}
	return hit, true
}

func splitConjuncts(x sqlparse.Expr) []sqlparse.Expr {
	if b, ok := x.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparse.Expr{x}
}

type exprSide int

const (
	sideNone exprSide = iota
	sideProbe
	sideBuild
	sideMixed
)

// classifySide determines which source of an equi-join an expression's
// column references resolve against (see planEquiJoin for nested).
// References resolving in neither (outer correlation, or a missing column
// that evaluation will report) are neutral. A reference ambiguous between
// the sides, or any subquery, whose references this walk cannot scope, is
// mixed.
func classifySide(x sqlparse.Expr, probe, build []frameCol, nested bool) exprSide {
	side := sideNone
	wrap := &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Expr: x}}}
	sqlparse.WalkExprs(wrap, func(e sqlparse.Expr) {
		var this exprSide
		switch c := e.(type) {
		case *sqlparse.ExistsExpr, *sqlparse.SubqueryExpr:
			this = sideMixed
		case *sqlparse.InExpr:
			if c.Sub == nil {
				return
			}
			this = sideMixed
		case *sqlparse.ColRef:
			inP, inB := frameHasCol(probe, c), frameHasCol(build, c)
			switch {
			case inP && (nested || !inB):
				this = sideProbe
			case inB && !inP:
				this = sideBuild
			case inP && inB:
				this = sideMixed
			default:
				return
			}
		default:
			return
		}
		if side == sideNone {
			side = this
		} else if side != this {
			side = sideMixed
		}
	})
	return side
}

func frameHasCol(cols []frameCol, c *sqlparse.ColRef) bool {
	for _, fc := range cols {
		if fc.matches(c.Qualifier, c.Name) {
			return true
		}
	}
	return false
}

// tableFrameCols names a table's columns as a scope sees them: qualified by
// the alias when there is one, else by the table name.
func tableFrameCols(t *Table, alias string) []frameCol {
	qual := strings.ToLower(alias)
	if qual == "" {
		qual = strings.ToLower(t.Name.Name)
	}
	cols := make([]frameCol, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = frameCol{qual: qual, name: strings.ToLower(c.Name)}
	}
	return cols
}

// collectAggregates finds aggregate calls in projections, HAVING and ORDER BY.
func collectAggregates(s *sqlparse.SelectStmt) []*sqlparse.FuncCall {
	var out []*sqlparse.FuncCall
	visit := func(x sqlparse.Expr) {
		if fc, ok := x.(*sqlparse.FuncCall); ok && isAggregate(fc.Name) {
			out = append(out, fc)
		}
	}
	tmp := &sqlparse.SelectStmt{Items: s.Items, Having: s.Having, OrderBy: s.OrderBy}
	sqlparse.WalkExprs(tmp, visit)
	return out
}

type groupOut struct {
	frame *frame
	ctx   *evalCtx
}

func (e *Engine) groupRows(ctx *evalCtx, s *sqlparse.SelectStmt, src *rowSource, outer *frame, aggCalls []*sqlparse.FuncCall) ([]groupOut, error) {
	type group struct {
		rep  []Datum
		rows [][]Datum
	}
	var order []string
	groups := make(map[string]*group)
	for _, row := range src.rows {
		f := &frame{cols: src.cols, row: row, parent: outer}
		var kb strings.Builder
		for _, g := range s.GroupBy {
			d, err := e.eval(ctx, g, f)
			if err != nil {
				return nil, err
			}
			kb.WriteString(d.GroupKey())
			kb.WriteByte(0)
		}
		k := kb.String()
		grp, ok := groups[k]
		if !ok {
			grp = &group{rep: row}
			groups[k] = grp
			order = append(order, k)
		}
		grp.rows = append(grp.rows, row)
	}
	// Global aggregation without GROUP BY always yields one group, possibly
	// over zero rows.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{rep: make([]Datum, len(src.cols))}
		order = append(order, "")
	}

	var outs []groupOut
	for _, k := range order {
		grp := groups[k]
		aggVals := make(map[sqlparse.Expr]Datum, len(aggCalls))
		for _, call := range aggCalls {
			v, err := e.computeAggregate(ctx, call, src, grp.rows, outer)
			if err != nil {
				return nil, err
			}
			aggVals[call] = v
		}
		f := &frame{cols: src.cols, row: grp.rep, parent: outer}
		outs = append(outs, groupOut{frame: f, ctx: &evalCtx{agg: aggVals}})
	}
	return outs, nil
}

func (e *Engine) computeAggregate(ctx *evalCtx, call *sqlparse.FuncCall, src *rowSource, rows [][]Datum, outer *frame) (Datum, error) {
	if len(call.Args) != 1 {
		return Datum{}, errf(CodeSyntax, "%s expects one argument", call.Name)
	}
	_, isStar := call.Args[0].(*sqlparse.Star)
	if isStar {
		if call.Name != "COUNT" {
			return Datum{}, errf(CodeSyntax, "* only valid in COUNT")
		}
		return IntD(int64(len(rows))), nil
	}
	var vals []Datum
	seen := map[string]bool{}
	for _, row := range rows {
		f := &frame{cols: src.cols, row: row, parent: outer}
		d, err := e.eval(ctx, call.Args[0], f)
		if err != nil {
			return Datum{}, err
		}
		if d.IsNull() {
			continue
		}
		if call.Distinct {
			k := d.GroupKey()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, d)
	}
	switch call.Name {
	case "COUNT":
		return IntD(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := Compare(v, best)
			if err != nil {
				return Datum{}, AsError(err)
			}
			if (call.Name == "MIN" && c < 0) || (call.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		allInt := true
		var sumI int64
		var sumF float64
		for _, v := range vals {
			if v.Kind == KInt {
				sumI += v.I
				sumF += float64(v.I)
				continue
			}
			if !v.Kind.isNumeric() {
				return Datum{}, errf(CodeTypeMismatch, "%s requires numbers, got %s", call.Name, v.Kind)
			}
			allInt = false
			sumF += v.asFloat()
		}
		if call.Name == "SUM" {
			if allInt {
				return IntD(sumI), nil
			}
			return FloatD(sumF), nil
		}
		return FloatD(sumF / float64(len(vals))), nil
	case "XOR_AGG":
		// Commutative fold for order-insensitive checksums: XOR of the
		// integer values (typically HASH64 results). Like SUM, an empty
		// input yields NULL rather than a zero that could masquerade as a
		// real checksum.
		if len(vals) == 0 {
			return Null(), nil
		}
		var acc int64
		for _, v := range vals {
			n, err := toInt(v)
			if err != nil {
				return Datum{}, errf(CodeTypeMismatch, "XOR_AGG requires integers, got %s", v.Kind)
			}
			acc ^= n
		}
		return IntD(acc), nil
	default:
		return Datum{}, errf(CodeUnsupported, "unknown aggregate %s", call.Name)
	}
}
