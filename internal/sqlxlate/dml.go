package sqlxlate

import (
	"fmt"
	"strings"

	"etlvirt/internal/sqlparse"
)

// DMLKind classifies an application-phase transformation.
type DMLKind int

// DML kinds.
const (
	DMLInsert DMLKind = iota
	DMLUpdate
	DMLDelete
	DMLUpsert
)

// String names the kind.
func (k DMLKind) String() string {
	switch k {
	case DMLUpdate:
		return "UPDATE"
	case DMLDelete:
		return "DELETE"
	case DMLUpsert:
		return "UPSERT"
	default:
		return "INSERT"
	}
}

// RangeStmt is a translated DML statement whose staging scan is restricted
// to a __seq row range. The range bounds are literal nodes mutated by SQL,
// and Template caches its text; a RangeStmt must therefore not be shared
// between goroutines.
type RangeStmt struct {
	stmt   sqlparse.Stmt
	lo, hi *sqlparse.Literal
	tmpl   string // Template's text, once rendered
}

// SQL renders the statement for rows lo..hi inclusive.
func (r *RangeStmt) SQL(lo, hi int64) (string, error) {
	r.lo.Int, r.hi.Int = lo, hi
	return sqlparse.Print(r.stmt, sqlparse.DialectCDW)
}

// Template renders the statement once as a range template: CDW text whose
// two bounds are bind markers (sqlparse.PrintTemplate). Binding the markers
// to lo and hi gives exactly SQL(lo, hi).
func (r *RangeStmt) Template() (string, error) {
	if r.tmpl == "" {
		s, err := sqlparse.PrintTemplate(r.stmt, r.lo, r.hi)
		if err != nil {
			return "", err
		}
		r.tmpl = s
	}
	return r.tmpl, nil
}

// DML is one translated application-phase statement plus the auxiliary
// queries the virtualizer needs around it.
type DML struct {
	Kind   DMLKind
	Target sqlparse.TableName
	// Apply is the rewritten statement, sourced from the staging table and
	// restricted to a row range. For upserts it is the UPDATE half.
	Apply *RangeStmt
	// ApplySecond is the guarded INSERT half of an upsert (nil otherwise).
	// It must run after Apply; both statements are idempotent per range so
	// adaptive retries converge.
	ApplySecond *RangeStmt
	// InsertExprs maps target column name (lower-cased) to the rewritten
	// source expression over the staging alias. Only set for inserts; used to
	// build uniqueness-emulation queries.
	InsertExprs map[string]sqlparse.Expr
	// OrderedExprs lists the rewritten insert source expressions in VALUES
	// order. Used to probe which expression fails for an isolated bad row.
	OrderedExprs []sqlparse.Expr
	// Columns is the insert's target column list, parallel to OrderedExprs;
	// empty when the insert names none and feeds the columns by position.
	Columns []string
}

// StageFields returns the staging-column names (input fields) referenced by
// expr, given the translator's staging alias.
func StageFields(expr sqlparse.Expr, stageAlias string) []string {
	var out []string
	seen := map[string]bool{}
	wrap := &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Expr: expr}}}
	sqlparse.WalkExprs(wrap, func(e sqlparse.Expr) {
		if c, ok := e.(*sqlparse.ColRef); ok && strings.EqualFold(c.Qualifier, stageAlias) {
			k := strings.ToUpper(c.Name)
			if !seen[k] && !strings.EqualFold(c.Name, SeqColumn) {
				seen[k] = true
				out = append(out, c.Name)
			}
		}
	})
	return out
}

// TranslateDML rewrites the application-phase DML of an import job. The
// legacy statement references input fields as :placeholders; the rewrite
// sources them from tr.Stage restricted by __seq range, turning the
// tuple-at-a-time legacy semantics into one set-oriented CDW statement per
// range (§3, §6).
func (tr *Translator) TranslateDML(legacySQL string) (*DML, error) {
	if tr.StageAlias == "" || tr.Stage.Name == "" {
		return nil, fmt.Errorf("sqlxlate: TranslateDML requires a staging context")
	}
	stmt, err := sqlparse.Parse(legacySQL, sqlparse.DialectLegacy)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sqlparse.InsertStmt:
		return tr.translateInsertDML(st)
	case *sqlparse.UpdateStmt:
		return tr.translateUpdateDML(st)
	case *sqlparse.DeleteStmt:
		return tr.translateDeleteDML(st)
	case *sqlparse.UpsertStmt:
		return tr.translateUpsertDML(st)
	default:
		return nil, fmt.Errorf("sqlxlate: unsupported DML %T in application phase", stmt)
	}
}

// rangePredicate builds s.__seq BETWEEN lo AND hi with mutable bounds.
func (tr *Translator) rangePredicate() (sqlparse.Expr, *sqlparse.Literal, *sqlparse.Literal) {
	lo := &sqlparse.Literal{Kind: sqlparse.LitInt}
	hi := &sqlparse.Literal{Kind: sqlparse.LitInt}
	pred := &sqlparse.BetweenExpr{
		X:  &sqlparse.ColRef{Qualifier: tr.StageAlias, Name: SeqColumn},
		Lo: lo,
		Hi: hi,
	}
	return pred, lo, hi
}

func (tr *Translator) stageRef() *sqlparse.TableRef {
	return &sqlparse.TableRef{Table: tr.Stage, Alias: tr.StageAlias}
}

func (tr *Translator) translateInsertDML(st *sqlparse.InsertStmt) (*DML, error) {
	if st.Select != nil {
		return nil, fmt.Errorf("sqlxlate: INSERT ... SELECT is not an ETL apply statement")
	}
	if len(st.Rows) != 1 {
		return nil, fmt.Errorf("sqlxlate: ETL INSERT must have exactly one VALUES row")
	}
	target := tr.mapTable(st.Table)
	pred, lo, hi := tr.rangePredicate()
	sel := &sqlparse.SelectStmt{
		From:  []sqlparse.TableExpr{tr.stageRef()},
		Where: pred,
	}
	exprsByCol := make(map[string]sqlparse.Expr, len(st.Rows[0]))
	var ordered []sqlparse.Expr
	for i, e := range st.Rows[0] {
		xe, err := tr.xlateExpr(e)
		if err != nil {
			return nil, err
		}
		ordered = append(ordered, xe)
		sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: xe})
		if i < len(st.Columns) {
			exprsByCol[strings.ToLower(st.Columns[i])] = xe
		} else {
			// positional: record under the ordinal; resolved against target
			// metadata by the caller via PositionalInsertExpr.
			exprsByCol[fmt.Sprintf("#%d", i)] = xe
		}
	}
	ins := &sqlparse.InsertStmt{
		Table:   target,
		Columns: append([]string{}, st.Columns...),
		Select:  sel,
	}
	return &DML{
		Kind:         DMLInsert,
		Target:       target,
		Apply:        &RangeStmt{stmt: ins, lo: lo, hi: hi},
		InsertExprs:  exprsByCol,
		OrderedExprs: ordered,
		Columns:      ins.Columns,
	}, nil
}

// PositionalInsertExpr returns the source expression feeding target column
// ordinal i for an insert without an explicit column list.
func (d *DML) PositionalInsertExpr(i int) (sqlparse.Expr, bool) {
	e, ok := d.InsertExprs[fmt.Sprintf("#%d", i)]
	return e, ok
}

// NamedInsertExpr returns the source expression feeding the named target
// column.
func (d *DML) NamedInsertExpr(col string) (sqlparse.Expr, bool) {
	e, ok := d.InsertExprs[strings.ToLower(col)]
	return e, ok
}

func (tr *Translator) translateUpdateDML(st *sqlparse.UpdateStmt) (*DML, error) {
	target := tr.mapTable(st.Table)
	pred, lo, hi := tr.rangePredicate()
	out := &sqlparse.UpdateStmt{Table: target, Alias: st.Alias}
	for _, a := range st.Set {
		v, err := tr.xlateExpr(a.Value)
		if err != nil {
			return nil, err
		}
		out.Set = append(out.Set, sqlparse.Assignment{Column: a.Column, Value: v})
	}
	for _, te := range st.From {
		t, err := tr.xlateTableExpr(te)
		if err != nil {
			return nil, err
		}
		out.From = append(out.From, t)
	}
	out.From = append(out.From, tr.stageRef())
	if st.Where != nil {
		w, err := tr.xlateExpr(st.Where)
		if err != nil {
			return nil, err
		}
		out.Where = &sqlparse.BinaryExpr{Op: "AND", L: w, R: pred}
	} else {
		out.Where = pred
	}
	return &DML{Kind: DMLUpdate, Target: target, Apply: &RangeStmt{stmt: out, lo: lo, hi: hi}}, nil
}

func (tr *Translator) translateDeleteDML(st *sqlparse.DeleteStmt) (*DML, error) {
	target := tr.mapTable(st.Table)
	pred, lo, hi := tr.rangePredicate()
	out := &sqlparse.DeleteStmt{Table: target, Alias: st.Alias}
	for _, te := range st.Using {
		t, err := tr.xlateTableExpr(te)
		if err != nil {
			return nil, err
		}
		out.Using = append(out.Using, t)
	}
	out.Using = append(out.Using, tr.stageRef())
	if st.Where != nil {
		w, err := tr.xlateExpr(st.Where)
		if err != nil {
			return nil, err
		}
		out.Where = &sqlparse.BinaryExpr{Op: "AND", L: w, R: pred}
	} else {
		out.Where = pred
	}
	return &DML{Kind: DMLDelete, Target: target, Apply: &RangeStmt{stmt: out, lo: lo, hi: hi}}, nil
}

// translateUpsertDML rewrites the legacy atomic upsert into a set-oriented
// pair: the UPDATE half sourced from the staging range, then an INSERT half
// guarded by NOT EXISTS on the update's match condition so only unmatched
// input rows insert. Both halves are idempotent for a fixed staged range,
// which adaptive error handling relies on when it re-applies sub-ranges.
func (tr *Translator) translateUpsertDML(st *sqlparse.UpsertStmt) (*DML, error) {
	if !st.Update.Table.Equal(st.Insert.Table) {
		return nil, fmt.Errorf("sqlxlate: upsert UPDATE targets %s but INSERT targets %s",
			st.Update.Table, st.Insert.Table)
	}
	upd, err := tr.translateUpdateDML(st.Update)
	if err != nil {
		return nil, err
	}
	ins, err := tr.translateInsertDML(st.Insert)
	if err != nil {
		return nil, err
	}
	// Guard the insert's staging scan: only rows with no matching target
	// row. Inside the subquery the target is in scope first, so the update's
	// match condition resolves target columns against it and staging columns
	// against the outer scan.
	var matchCond sqlparse.Expr
	if st.Update.Where != nil {
		if matchCond, err = tr.xlateExpr(st.Update.Where); err != nil {
			return nil, err
		}
	} else {
		matchCond = &sqlparse.Literal{Kind: sqlparse.LitBool, Bool: true}
	}
	guard := &sqlparse.ExistsExpr{
		Not: true,
		Sub: &sqlparse.SelectStmt{
			Items: []sqlparse.SelectItem{{Expr: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: 1}}},
			From:  []sqlparse.TableExpr{&sqlparse.TableRef{Table: upd.Target}},
			Where: matchCond,
		},
	}
	insStmt := ins.Apply.stmt.(*sqlparse.InsertStmt)
	sel := insStmt.Select
	sel.Where = &sqlparse.BinaryExpr{Op: "AND", L: sel.Where, R: guard}

	return &DML{
		Kind:         DMLUpsert,
		Target:       upd.Target,
		Apply:        upd.Apply,
		ApplySecond:  ins.Apply,
		InsertExprs:  ins.InsertExprs,
		OrderedExprs: ins.OrderedExprs,
		Columns:      ins.Columns,
	}, nil
}

// Key is one uniqueness constraint of an insert's target, the primary key
// or a UNIQUE constraint: its key columns and, parallel to them, the
// rewritten source expressions feeding them.
type Key struct {
	Cols  []string
	Exprs []sqlparse.Expr
}

// DupCheckQueries builds the uniqueness-emulation queries for one key of an
// insert DML (§7): intra-range duplicates among the rows being inserted, and
// collisions between those rows and the target table. keyExprs are the
// rewritten source expressions feeding the key columns (parallel to
// keyCols). Both queries return the number of violations in the __seq
// range. A key with a NULL in any column never collides: the join leaves it
// out, and the intra-range query drops its group.
func (tr *Translator) DupCheckQueries(d *DML, keyCols []string, keyExprs []sqlparse.Expr) (intra, target *RangeStmt, err error) {
	if len(keyCols) == 0 || len(keyCols) != len(keyExprs) {
		return nil, nil, fmt.Errorf("sqlxlate: bad uniqueness key specification")
	}
	countStar := func() *sqlparse.FuncCall {
		return &sqlparse.FuncCall{Name: "COUNT", Args: []sqlparse.Expr{&sqlparse.Star{}}}
	}

	// intra: SELECT count(*) FROM (SELECT 1 AS one FROM stage s WHERE range
	//        GROUP BY e1.. HAVING count(*) > 1 AND e1 IS NOT NULL ..) d
	// The NULL test follows the count, so it runs only for repeated keys.
	predI, loI, hiI := tr.rangePredicate()
	var having sqlparse.Expr = &sqlparse.BinaryExpr{Op: ">",
		L: countStar(),
		R: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: 1}}
	for _, e := range keyExprs {
		having = conjoin(having, &sqlparse.IsNullExpr{X: e, Not: true})
	}
	inner := &sqlparse.SelectStmt{
		Items:   []sqlparse.SelectItem{{Expr: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: 1}, Alias: "one"}},
		From:    []sqlparse.TableExpr{tr.stageRef()},
		Where:   predI,
		GroupBy: keyExprs,
		Having:  having,
	}
	intraSel := &sqlparse.SelectStmt{
		Items: []sqlparse.SelectItem{{Expr: countStar()}},
		From:  []sqlparse.TableExpr{&sqlparse.SubqueryTable{Select: inner, Alias: "d"}},
	}
	intra = &RangeStmt{stmt: intraSel, lo: loI, hi: hiI}

	// target: SELECT count(*) FROM stage s JOIN tgt t ON t.k1 = e1 ... WHERE range
	predT, loT, hiT := tr.rangePredicate()
	targetSel := &sqlparse.SelectStmt{
		Items: []sqlparse.SelectItem{{Expr: countStar()}},
		From:  []sqlparse.TableExpr{tr.targetJoin(d, keyCols, keyExprs)},
		Where: predT,
	}
	target = &RangeStmt{stmt: targetSel, lo: loT, hi: hiT}
	return intra, target, nil
}

// targetJoin joins the stage to the insert's target t on its key columns.
func (tr *Translator) targetJoin(d *DML, keyCols []string, keyExprs []sqlparse.Expr) *sqlparse.Join {
	var on sqlparse.Expr
	for i, kc := range keyCols {
		on = conjoin(on, &sqlparse.BinaryExpr{Op: "=", L: &sqlparse.ColRef{Qualifier: "t", Name: kc}, R: keyExprs[i]})
	}
	return &sqlparse.Join{
		Type:  sqlparse.JoinInner,
		Left:  tr.stageRef(),
		Right: &sqlparse.TableRef{Table: d.Target, Alias: "t"},
		On:    on,
	}
}

// conjoin returns l AND r, or the other when one is nil.
func conjoin(l, r sqlparse.Expr) sqlparse.Expr {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	}
	return &sqlparse.BinaryExpr{Op: "AND", L: l, R: r}
}

// LocateQuery builds the probe the adaptive error handler sends when a range
// of an insert DML fails (§7): one UNION ALL statement returning, for every
// staged row in the range it predicts will fail, the row's __seq and a
// branch tag. Its branches are
//
//	(a) rows on which a TO_DATE/TO_TIMESTAMP of the insert fails: its column
//	    arguments are non-NULL and its TRY_ form is NULL (tag 0);
//	(b) rows whose key collides with a target row (tag 1);
//	(c) rows whose key repeats an earlier row of the range: the stage joined
//	    to its own key projection s2 on s2.__seq < s.__seq (tag 1).
//
// (b) and (c) repeat once per key, in order. Every scan of the stage carries
// the __seq range. As a prediction of failures the result is not a verdict:
// a branch can name a row that applies (a conversion under a CASE arm not
// taken, a duplicate of a row that itself fails) and miss a row that does
// not (other error classes, a NULL key in a NOT NULL column). For the keys
// it is exact: a row no tag-1 branch names collides neither with the target
// as the probe saw it nor with an earlier row of the range. Equality joins
// never match a NULL, so a key with a NULL is never named: it never
// collides. It returns nil when the insert has nothing to check.
func (tr *Translator) LocateQuery(d *DML, keys []Key) (*RangeStmt, error) {
	for _, k := range keys {
		if len(k.Cols) == 0 || len(k.Cols) != len(k.Exprs) {
			return nil, fmt.Errorf("sqlxlate: bad uniqueness key specification")
		}
	}
	lo := &sqlparse.Literal{Kind: sqlparse.LitInt}
	hi := &sqlparse.Literal{Kind: sqlparse.LitInt}
	seqOf := func(alias string) *sqlparse.ColRef {
		return &sqlparse.ColRef{Qualifier: alias, Name: SeqColumn}
	}
	inRange := func(alias string) sqlparse.Expr {
		return &sqlparse.BetweenExpr{X: seqOf(alias), Lo: lo, Hi: hi}
	}
	scan := func(from sqlparse.TableExpr, where sqlparse.Expr) *sqlparse.SelectStmt {
		return &sqlparse.SelectStmt{
			Items: []sqlparse.SelectItem{{Expr: seqOf(tr.StageAlias)}},
			From:  []sqlparse.TableExpr{from},
			Where: conjoin(inRange(tr.StageAlias), where),
		}
	}
	branch := func(from sqlparse.TableExpr, where sqlparse.Expr, key bool) *sqlparse.SelectStmt {
		b := scan(from, where)
		var tag int64
		if key {
			tag = 1
		}
		b.Items = append(b.Items, sqlparse.SelectItem{Expr: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: tag}})
		return b
	}
	var branches []*sqlparse.SelectStmt

	// (a) date and timestamp conversions
	var conv sqlparse.Expr
	sqlparse.WalkExprs(&sqlparse.InsertStmt{Rows: [][]sqlparse.Expr{d.OrderedExprs}}, func(e sqlparse.Expr) {
		fc, ok := e.(*sqlparse.FuncCall)
		if !ok || (fc.Name != "TO_DATE" && fc.Name != "TO_TIMESTAMP") {
			return
		}
		var fails sqlparse.Expr
		for _, a := range fc.Args {
			if lit, ok := a.(*sqlparse.Literal); ok && lit.Kind != sqlparse.LitNull {
				continue // a constant format is never NULL
			}
			fails = conjoin(fails, &sqlparse.IsNullExpr{X: a, Not: true})
		}
		fails = conjoin(fails, &sqlparse.IsNullExpr{X: &sqlparse.FuncCall{Name: "TRY_" + fc.Name, Args: fc.Args}})
		if conv == nil {
			conv = fails
		} else {
			conv = &sqlparse.BinaryExpr{Op: "OR", L: conv, R: fails}
		}
	})
	if conv != nil {
		branches = append(branches, branch(tr.stageRef(), conv, false))
	}

	for _, k := range keys {
		// (b) collisions with the target
		branches = append(branches, branch(tr.targetJoin(d, k.Cols, k.Exprs), nil, true))

		// (c) repeats of an earlier key in the range
		proj := scan(tr.stageRef(), nil)
		var on sqlparse.Expr
		for i, e := range k.Exprs {
			name := fmt.Sprintf("k%d", i)
			proj.Items = append(proj.Items, sqlparse.SelectItem{Expr: e, Alias: name})
			on = conjoin(on, &sqlparse.BinaryExpr{Op: "=", L: &sqlparse.ColRef{Qualifier: "s2", Name: name}, R: e})
		}
		branches = append(branches, branch(&sqlparse.Join{Type: sqlparse.JoinInner, Left: tr.stageRef(),
			Right: &sqlparse.SubqueryTable{Select: proj, Alias: "s2"}, On: on},
			&sqlparse.BinaryExpr{Op: "<", L: seqOf("s2"), R: seqOf(tr.StageAlias)}, true))
	}

	if len(branches) == 0 {
		return nil, nil
	}
	for i := len(branches) - 1; i > 0; i-- {
		branches[i-1].Union = branches[i]
	}
	return &RangeStmt{stmt: branches[0], lo: lo, hi: hi}, nil
}
