package cdw

import (
	"sync/atomic"
	"time"

	"etlvirt/internal/cloudstore"
	"etlvirt/internal/sqlparse"
)

// Options configures engine semantics. The two presets capture the paper's
// contrast between the legacy EDW and the CDW:
//
//   - The CDW preset (default) runs set-oriented: a failing DML statement
//     aborts as a unit, reports no row numbers, and declared uniqueness
//     constraints are NOT enforced.
//   - The EDW preset (used by internal/edw) enforces uniqueness and exposes
//     per-row error detail, enabling native tuple-at-a-time error handling.
type Options struct {
	// EnforceUniqueness makes INSERTs reject primary-key and unique-constraint
	// duplicates. CDWs typically treat these constraints as metadata only.
	EnforceUniqueness bool
	// RowDetail annotates DML errors with the 1-based input row when known.
	// The CDW runs with this off: errors surface at statement granularity.
	RowDetail bool
	// Now supplies the clock for CURRENT_DATE/CURRENT_TIMESTAMP. Nil uses
	// time.Now.
	Now func() time.Time
	// StmtOverhead simulates the per-statement round-trip and scheduling cost
	// of a real cloud warehouse. Zero disables it.
	StmtOverhead time.Duration
}

// Engine is one CDW (or EDW) database instance.
type Engine struct {
	Catalog *Catalog
	Store   cloudstore.Store // source for COPY INTO; may be nil
	opts    Options

	stmtCount   atomic.Int64
	rowsScanned atomic.Int64
}

// NewEngine returns an engine with the given options.
func NewEngine(store cloudstore.Store, opts Options) *Engine {
	return &Engine{Catalog: NewCatalog(), Store: store, opts: opts}
}

func (e *Engine) now() time.Time {
	if e.opts.Now != nil {
		return e.opts.Now()
	}
	return time.Now()
}

// StmtCount returns the number of statements executed (benchmarking aid).
func (e *Engine) StmtCount() int64 { return e.stmtCount.Load() }

// RowsScanned returns the number of rows copied out of base tables by scans,
// after range pruning (see planScans).
func (e *Engine) RowsScanned() int64 { return e.rowsScanned.Load() }

// ResultCol describes one output column.
type ResultCol struct {
	Name string
	Type ColType
}

// Result is the outcome of one statement.
type Result struct {
	Columns  []ResultCol
	Rows     [][]Datum
	Activity int64 // rows inserted/updated/deleted, or row count for SELECT
}

// ExecSQL parses and executes one statement written in the CDW dialect.
func (e *Engine) ExecSQL(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql, sqlparse.DialectCDW)
	if err != nil {
		return nil, errf(CodeSyntax, "%v", err)
	}
	return e.Exec(stmt)
}

// Exec executes a parsed statement.
func (e *Engine) Exec(stmt sqlparse.Stmt) (*Result, error) {
	e.stmtCount.Add(1)
	if e.opts.StmtOverhead > 0 {
		time.Sleep(e.opts.StmtOverhead)
	}
	var res *Result
	var err error
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		res, err = e.execSelectTop(s)
	case *sqlparse.InsertStmt:
		res, err = e.execInsert(s)
	case *sqlparse.UpdateStmt:
		res, err = e.execUpdate(s)
	case *sqlparse.DeleteStmt:
		res, err = e.execDelete(s)
	case *sqlparse.CreateTableStmt:
		res, err = e.execCreate(s)
	case *sqlparse.DropTableStmt:
		err = e.Catalog.Drop(s.Table, s.IfExists)
		res = &Result{}
	case *sqlparse.TruncateStmt:
		res, err = e.execTruncate(s)
	case *sqlparse.CopyStmt:
		res, err = e.execCopy(s)
	default:
		return nil, errf(CodeUnsupported, "unsupported statement %T", stmt)
	}
	if err != nil && !e.opts.RowDetail {
		err = scrubRowDetail(err)
	}
	return res, err
}

func (e *Engine) execCreate(s *sqlparse.CreateTableStmt) (*Result, error) {
	t := &Table{Name: s.Table}
	for _, cd := range s.Columns {
		ct, err := ResolveType(cd.Type)
		if err != nil {
			return nil, err
		}
		t.Columns = append(t.Columns, Column{
			Name: cd.Name, Type: ct, NotNull: cd.NotNull, Default: cd.Default,
		})
	}
	resolve := func(names []string) ([]int, error) {
		idx := make([]int, len(names))
		for i, n := range names {
			j := t.ColIndex(n)
			if j < 0 {
				return nil, errf(CodeNoSuchColumn, "constraint column %s does not exist", n)
			}
			idx[i] = j
		}
		return idx, nil
	}
	if len(s.PrimaryKey) > 0 {
		pk, err := resolve(s.PrimaryKey)
		if err != nil {
			return nil, err
		}
		t.PrimaryKey = pk
	}
	for _, u := range s.Unique {
		ui, err := resolve(u)
		if err != nil {
			return nil, err
		}
		t.Unique = append(t.Unique, ui)
	}
	if err := e.Catalog.Create(t, s.IfNotExists); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// TableMeta describes a table for clients (column names/types and the
// declared — possibly unenforced — key constraints).
type TableMeta struct {
	Name       sqlparse.TableName
	Columns    []ResultCol
	NotNull    []bool
	Defaults   []string // DEFAULT expressions as CDW SQL, "" for none
	PrimaryKey []string
	Unique     [][]string
	Rows       int
}

// Describe returns metadata for a table. The virtualizer uses the declared
// primary key to emulate uniqueness enforcement (§7).
func (e *Engine) Describe(tn sqlparse.TableName) (*TableMeta, error) {
	t, err := e.Catalog.Lookup(tn)
	if err != nil {
		return nil, err
	}
	m := &TableMeta{Name: t.Name, Rows: t.RowCount()}
	for _, c := range t.Columns {
		m.Columns = append(m.Columns, ResultCol{Name: c.Name, Type: c.Type})
		m.NotNull = append(m.NotNull, c.NotNull)
		var def string
		if c.Default != nil {
			if def, err = sqlparse.PrintExpr(c.Default, sqlparse.DialectCDW); err != nil {
				return nil, err
			}
		}
		m.Defaults = append(m.Defaults, def)
	}
	for _, i := range t.PrimaryKey {
		m.PrimaryKey = append(m.PrimaryKey, t.Columns[i].Name)
	}
	for _, u := range t.Unique {
		var cols []string
		for _, i := range u {
			cols = append(cols, t.Columns[i].Name)
		}
		m.Unique = append(m.Unique, cols)
	}
	return m, nil
}

func (e *Engine) execTruncate(s *sqlparse.TruncateStmt) (*Result, error) {
	t, err := e.Catalog.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	n := len(t.rows)
	t.rows = nil
	t.mu.Unlock()
	return &Result{Activity: int64(n)}, nil
}
