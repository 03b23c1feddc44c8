package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/obs"
	"etlvirt/internal/retrier"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
)

// stagingLane is the one seam where staging objects become warehouse rows
// (Figure 2(a): intermediate file -> bulk upload -> COPY into staging). It
// owns a staging table, the object-key prefix its spool objects live under,
// and the log of manifest batches already COPYed, and is the only code in
// core that uploads a spool object, renders a staging COPY, recovers an
// engine-side COPY failure, or deletes a key prefix. An import holds one
// lane fed by its copy scheduler; a stream holds one for both delta classes
// (its table carries the image-class column) and resets it for every
// micro-batch, landing the batch's one spool object — the near-real-time
// path is the batch path run small.
//
// upload may be called from several goroutines at once; reset, land and
// close belong to one goroutine at a time (the import's scheduler, the
// stream's session goroutine), so the landed log needs no lock.
type stagingLane struct {
	// ctx is the owning job's CDW context (obs.WithJob); trace is its job.
	ctx    context.Context
	node   *Node
	trace  *obs.JobTrace
	stage  sqlparse.TableName
	ddl    string // CREATE TABLE of the staging table
	prefix string // object-key prefix, "/"-terminated
	op     string // retry op label for reset and land
	worker string // trace lane of the copy spans

	mu       sync.Mutex
	uploaded map[string]int64 // bytes per uploaded object not yet landed

	landed []copyBatch

	// stmts counts the CDW statements the lane has issued.
	stmts atomic.Int64
}

// copyBatch is one landed staging COPY: the manifest (object names relative
// to the lane's prefix) and the row count the COPY reported.
type copyBatch struct {
	files []string
	rows  int64
}

func newStagingLane(ctx context.Context, n *Node, stage sqlparse.TableName, ddl, prefix, op, worker string) *stagingLane {
	return &stagingLane{
		trace: obs.JobFrom(ctx), ctx: ctx, node: n, stage: stage, ddl: ddl,
		prefix: prefix, op: op, worker: worker,
		uploaded: make(map[string]int64),
	}
}

// upload puts an in-memory spool object under the lane's prefix, under the
// node's retry policy, and returns the bytes stored. worker names the trace
// lane of the upload span. Puts are idempotent (same key, same bytes), so
// transient store failures retry whole-object. The stored size is remembered
// until the object lands, so each COPY span can carry its own manifest's
// bytes.
func (l *stagingLane) upload(worker, name string, data []byte, rows int64) (int64, error) {
	key := l.prefix + name
	start := time.Now()
	var n int64
	err := l.node.retry.Do(l.ctx, "upload", func() error {
		var uerr error
		n, uerr = l.node.loader.UploadBytes(data, key)
		return uerr
	})
	nm := l.node.nm
	nm.uploadLat.ObserveDuration(time.Since(start))
	l.trace.Span("upload", worker, start, rows, n, err)
	if err != nil {
		return 0, fmt.Errorf("uploading %s: %w", key, err)
	}
	nm.filesUploaded.Inc()
	nm.bytesUploaded.Add(n)
	l.mu.Lock()
	l.uploaded[name] = n
	l.mu.Unlock()
	return n, nil
}

// do runs one staging-table operation under the node's retry policy, also
// retrying engine-side COPY failures (the CDW reading a faulted object
// store). Transient transport failures the pool could not safely re-send
// are retried here too: fn rebuilds the staging table before any re-attempt,
// so re-running Exec cannot double-apply. Engine errors other than
// CodeCopyFailed surface immediately.
func (l *stagingLane) do(fn func(attempt int) error) error {
	r := *l.node.retry // shares Budget/observers; only Retryable differs
	r.Retryable = func(err error) bool {
		if retrier.IsTransient(err) {
			return true
		}
		var ce *cdw.Error
		return errors.As(err, &ce) && ce.Code == cdw.CodeCopyFailed
	}
	attempt := 0
	return r.Do(l.ctx, l.op, func() error {
		attempt++
		return fn(attempt)
	})
}

// exec runs one staging-table statement.
func (l *stagingLane) exec(sql string) (int64, error) {
	l.stmts.Add(1)
	return l.node.pool.Write(l.ctx, cdwnet.Stmt{SQL: sql})
}

// recreate drops and recreates the staging table, empty.
func (l *stagingLane) recreate() error {
	for _, s := range []string{dropIfExists(l.stage), l.ddl} {
		if _, err := l.exec(s); err != nil {
			return err
		}
	}
	return nil
}

// reset starts a new staging generation: the landed log is forgotten and the
// table recreated empty, so nothing landed before the reset is ever replayed
// into what lands after it.
func (l *stagingLane) reset() error {
	l.landed = nil
	return l.do(func(int) error { return l.recreate() })
}

// copySQL renders the staging COPY for one manifest. The engine sniffs
// compression per file from its .gz suffix.
func (l *stagingLane) copySQL(files []string) (string, error) {
	return sqlparse.Print(&sqlparse.CopyStmt{
		Table:   l.stage,
		From:    "store://" + l.prefix,
		Files:   files,
		Options: map[string]string{"format": "csv", "order": sqlxlate.SeqColumn},
	}, sqlparse.DialectCDW)
}

// copy issues the staging COPY for one manifest and returns the rows staged.
func (l *stagingLane) copy(files []string) (int64, error) {
	sql, err := l.copySQL(files)
	if err != nil {
		return 0, err
	}
	return l.exec(sql)
}

// land COPYs one manifest of uploaded objects into the staging table and
// returns the rows it staged. A failed attempt is recovered by recreating
// the table and replaying every batch that already landed, so the table
// holds exactly what it held before the failing attempt; each landed batch
// is logged once, so recovery replays are exactly-once however many
// attempts it takes.
func (l *stagingLane) land(files []string) (int64, error) {
	nm := l.node.nm
	var staged, bytes int64
	l.mu.Lock()
	for _, f := range files {
		bytes += l.uploaded[f]
		delete(l.uploaded, f)
	}
	l.mu.Unlock()
	err := l.do(func(attempt int) error {
		if attempt > 1 {
			if err := l.replayLanded(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		staged, err = l.copy(files)
		nm.copyStatements.Inc()
		l.trace.Span("copy", l.worker, start, staged, bytes, err)
		return err
	})
	if err != nil {
		return 0, err
	}
	l.landed = append(l.landed, copyBatch{files: files, rows: staged})
	return staged, nil
}

// replayLanded is the recovery point: wipe any partial staging state, then
// rebuild it from the landed-batch log.
func (l *stagingLane) replayLanded() error {
	nm := l.node.nm
	start := time.Now()
	nm.copyRecoveries.Inc()
	if err := l.recreate(); err != nil {
		return err
	}
	for _, b := range l.landed {
		rows, err := l.copy(b.files)
		if err != nil {
			return err
		}
		nm.copyReplays.Inc()
		if rows != b.rows {
			return fmt.Errorf("replaying COPY batch landed %d rows, originally %d", rows, b.rows)
		}
	}
	l.trace.Span("copy_retry", l.worker, start, 0, 0, nil)
	return nil
}

// purge deletes every object under the lane's prefix. Best effort: a stale
// object is never named by a later manifest.
func (l *stagingLane) purge() {
	keys, err := l.node.store.List(l.prefix)
	if err != nil {
		return
	}
	for _, k := range keys {
		_ = l.node.store.Delete(k)
	}
}

// close drops the staging table and purges the lane's objects.
func (l *stagingLane) close() {
	_, _ = l.exec(dropIfExists(l.stage))
	l.purge()
}
