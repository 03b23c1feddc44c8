package cdw

import (
	"strings"

	"etlvirt/internal/sqlparse"
)

// Range pruning applies a constant integer restriction on a base table while
// that table is scanned, so a __seq range statement costs what its range
// holds rather than what the staging table holds. A top-level WHERE conjunct
// qualifies when it is
//
//	q.c BETWEEN int AND int | q.c = int
//
// — the two shapes the virtualizer's range DML and per-row probes send — c
// is a column declared INT, and q names exactly one base table of the FROM
// tree on a side no join NULL-extends: never the right of a LEFT JOIN, never
// a derived table. An unqualified c qualifies only when the FROM holds
// exactly one table. A row the conjunct does not hold for cannot make the
// WHERE TRUE, so dropping it at the scan leaves every result, row order,
// Activity and table state the statement would otherwise produce; the only
// difference is that an error raised solely on such rows — by a join,
// another conjunct, a semi-join or the projection — is no longer raised.

// intRange is an inclusive bound on one column of a scanned table; lo > hi
// holds for no row.
type intRange struct {
	col    int
	lo, hi int64
}

// prunedScan is one base table and the ranges its scan keeps rows within.
type prunedScan struct {
	tbl    *Table
	ranges []intRange
}

// scanPlan maps each base table of a FROM tree that can be pruned to its
// scan. A nil plan scans every table in full.
type scanPlan map[*sqlparse.TableRef]*prunedScan

// fromItem is one leaf of a FROM tree as WHERE references see it.
type fromItem struct {
	ref      *sqlparse.TableRef // nil for a derived table
	qual     string
	nullable bool // some join NULL-extends this side
}

func collectFromItems(te sqlparse.TableExpr, nullable bool, items []fromItem) []fromItem {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		qual := t.Alias
		if qual == "" {
			qual = t.Table.Name
		}
		return append(items, fromItem{ref: t, qual: qual, nullable: nullable})
	case *sqlparse.SubqueryTable:
		return append(items, fromItem{qual: t.Alias, nullable: nullable})
	case *sqlparse.Join:
		items = collectFromItems(t.Left, nullable, items)
		return collectFromItems(t.Right, nullable || t.Type == sqlparse.JoinLeft, items)
	}
	return items
}

// planScans finds the WHERE conjuncts that restrict a base table of from
// (see the rules above). A reference an UPDATE's or DELETE's target also
// resolves is ambiguous in the joined scope, which fails on every row
// evaluated, so it needs no rule of its own.
func (e *Engine) planScans(from []sqlparse.TableExpr, where sqlparse.Expr) scanPlan {
	if where == nil || len(from) == 0 {
		return nil
	}
	var items []fromItem
	var plan scanPlan
	for _, c := range splitConjuncts(where) {
		ref, r, ok := rangeConjunct(c)
		if !ok {
			continue
		}
		if items == nil {
			for _, te := range from {
				items = collectFromItems(te, false, items)
			}
		}
		// The one FROM item the reference names; an unqualified reference
		// names every item.
		var it *fromItem
		for i := range items {
			if ref.Qualifier == "" || strings.EqualFold(ref.Qualifier, items[i].qual) {
				if it != nil {
					it = nil
					break
				}
				it = &items[i]
			}
		}
		if it == nil || it.ref == nil || it.nullable {
			continue
		}
		ps := plan[it.ref]
		if ps == nil {
			tbl, err := e.Catalog.Lookup(it.ref.Table)
			if err != nil {
				continue
			}
			ps = &prunedScan{tbl: tbl}
		}
		// A name two columns share is ambiguous wherever it is evaluated.
		if r.col = ps.tbl.ColIndex(ref.Name); r.col < 0 || ps.tbl.Columns[r.col].Type.Kind != KInt {
			continue
		}
		ps.ranges = append(ps.ranges, r)
		if plan == nil {
			plan = make(scanPlan)
		}
		plan[it.ref] = ps
	}
	return plan
}

// rangeConjunct recognizes c BETWEEN int AND int and c = int, returning the
// column and the bound (its col unset).
func rangeConjunct(x sqlparse.Expr) (*sqlparse.ColRef, intRange, bool) {
	switch v := x.(type) {
	case *sqlparse.BetweenExpr:
		c, ok := v.X.(*sqlparse.ColRef)
		lo, okLo := intLiteral(v.Lo)
		hi, okHi := intLiteral(v.Hi)
		if !v.Not && ok && okLo && okHi {
			return c, intRange{lo: lo, hi: hi}, true
		}
	case *sqlparse.BinaryExpr:
		c, ok := v.L.(*sqlparse.ColRef)
		n, okN := intLiteral(v.R)
		if v.Op == "=" && ok && okN {
			return c, intRange{lo: n, hi: n}, true
		}
	}
	return nil, intRange{}, false
}

func intLiteral(x sqlparse.Expr) (int64, bool) {
	lit, ok := x.(*sqlparse.Literal)
	if !ok || lit.Kind != sqlparse.LitInt {
		return 0, false
	}
	return lit.Int, true
}

// scan copies the rows of t a scan sees, under the read lock: every row, or
// with ranges only those within all of them. Every write casts an INT
// column's values to INT (castDatum), so a ranged value is INT or NULL.
func (t *Table) scan(ranges []intRange) [][]Datum {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(ranges) == 0 {
		return append(make([][]Datum, 0, len(t.rows)), t.rows...)
	}
	var out [][]Datum
	for _, row := range t.rows {
		keep := true
		for _, r := range ranges {
			d := row[r.col]
			keep = keep && !d.IsNull() && d.I >= r.lo && d.I <= r.hi
		}
		if keep {
			out = append(out, row)
		}
	}
	return out
}
