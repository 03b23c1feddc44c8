package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"etlvirt/internal/cdwnet"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
)

// errInsertBatch is how many error rows one INSERT into an error table
// carries: large enough that error-heavy jobs don't serialize thousands of
// pool round trips, small enough to keep statements readable in traces.
const errInsertBatch = 100

// errTable writes one job's ET or UV table and counts the rows recorded
// into it; every error row of an import or a stream leaves through one.
// Rows are buffered in record order and a full buffer goes out as one
// multi-row INSERT, so a dirty job sends one statement per errInsertBatch
// errors and holds no more unwritten rows than that. A table the job did
// not declare counts its rows and writes nothing, as the legacy tools drop
// them.
type errTable struct {
	ctx   context.Context
	pool  *cdwnet.Pool
	name  sqlparse.TableName
	rows  [][]sqlparse.Expr
	n     atomic.Int64 // rows recorded; /jobs/active reads it while the job runs
	stmts int64        // statements issued
}

func newErrTable(ctx context.Context, n *Node, name string) *errTable {
	return &errTable{ctx: ctx, pool: n.pool, name: sqlparse.ParseTableName(name)}
}

// recreate drops the table and creates it empty.
func (t *errTable) recreate() error {
	if t.name.Name == "" {
		return nil
	}
	ddl, err := sqlxlate.ErrorTableDDL(t.name)
	if err != nil {
		return err
	}
	for _, s := range []string{dropIfExists(t.name), ddl} {
		if err := t.write(s); err != nil {
			return err
		}
	}
	return nil
}

// add records one error row for rows lo..hi and writes the buffer once it
// is full.
func (t *errTable) add(lo, hi int64, code int, field, msg string) error {
	t.n.Add(1)
	if t.name.Name == "" {
		return nil
	}
	t.rows = append(t.rows, []sqlparse.Expr{
		&sqlparse.Literal{Kind: sqlparse.LitInt, Int: lo},
		&sqlparse.Literal{Kind: sqlparse.LitInt, Int: hi},
		&sqlparse.Literal{Kind: sqlparse.LitInt, Int: int64(code)},
		&sqlparse.Literal{Kind: sqlparse.LitString, Str: field},
		&sqlparse.Literal{Kind: sqlparse.LitString, Str: msg},
	})
	if len(t.rows) == errInsertBatch {
		return t.flush()
	}
	return nil
}

// flush writes the buffered rows in one INSERT.
func (t *errTable) flush() error {
	if len(t.rows) == 0 {
		return nil
	}
	sql, err := sqlparse.Print(&sqlparse.InsertStmt{Table: t.name, Rows: t.rows}, sqlparse.DialectCDW)
	t.rows = t.rows[:0]
	if err != nil {
		return err
	}
	return t.write(sql)
}

// clearAbove deletes the rows of sequences above watermark: the rows a
// stream's uncommitted batch may have written before a crash.
func (t *errTable) clearAbove(watermark int64) error {
	if t.name.Name == "" {
		return nil
	}
	return t.write(fmt.Sprintf("DELETE FROM %s WHERE SEQNO_END > %d", t.name.String(), watermark))
}

func (t *errTable) write(sql string) error {
	t.stmts++
	_, err := t.pool.Write(t.ctx, cdwnet.Stmt{SQL: sql})
	return err
}

// count returns how many rows have been recorded.
func (t *errTable) count() int64 { return t.n.Load() }
