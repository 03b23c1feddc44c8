package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/convert"
	"etlvirt/internal/credit"
	"etlvirt/internal/errhandle"
	"etlvirt/internal/fwriter"
	"etlvirt/internal/obs"
	"etlvirt/internal/retrier"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/wire"
)

// convTask is one data chunk travelling from a session to a DataConverter.
// The owns directive on payload is the machine-checked form of the pipeline
// hand-off contract: a goroutine receiving a convTask owns the pooled
// payload buffer and must release or forward it on every path (bufown).
type convTask struct {
	payload  []byte //etlvirt:owns
	firstRow int64
	credit   *credit.Credit
}

// writeTask is one converted chunk travelling to a FileWriter, which owns
// the pooled CSV buffer from receipt until its putBuf.
type writeTask struct {
	csv    []byte //etlvirt:owns
	rows   int
	credit *credit.Credit
}

// importJob is the state of one virtualized import. Its pipeline mirrors
// Figure 2(a): session handlers feed DataConverter workers through convCh,
// converters feed FileWriter goroutines, writers hand finished files to
// upload workers, and the copy scheduler lands uploaded files in the staging
// table through the job's stagingLane.
type importJob struct {
	id   uint64
	node *Node
	req  *wire.BeginLoad

	stage   sqlparse.TableName
	et, uv  *errTable
	tr      *sqlxlate.Translator
	conv    *convert.Converter
	lane    *stagingLane
	targets string // rendered target table name for error messages

	convCh   chan convTask
	writeChs []chan writeTask
	uploadCh chan fwriter.FinishedFile
	convWG   sync.WaitGroup
	writeWG  sync.WaitGroup
	uploadWG sync.WaitGroup

	// copy scheduler (incremental manifest COPY while acquisition runs)
	copyableCh chan string // uploaded object names ready to COPY
	schedWG    sync.WaitGroup
	stagedN    int64 // rows landed across batches; scheduler-then-finisher owned
	copyQueue  atomic.Int64
	batchesN   atomic.Int64 // incremental COPY batches issued (live, for debug)

	// pending counts chunks acknowledged but not yet handed to convCh.
	pending sync.WaitGroup

	memfs *fwriter.MemFS // finished spool files awaiting upload

	rr atomic.Uint64 // round-robin for writer selection

	mu         sync.Mutex
	dataErrors []convert.DataError
	failure    error // first pipeline failure; poisons the job

	// maxSeq and acqFromNs are updated lock-free on every chunk (CAS loops
	// in handleChunk) so concurrent session goroutines never contend on
	// j.mu for the per-chunk bookkeeping.
	maxSeq    atomic.Int64
	acqFromNs atomic.Int64 // UnixNano of the first data chunk; 0 = none yet

	chunks      atomic.Int64
	bytesIn     atomic.Int64
	rowsIn      atomic.Int64
	rowsConv    atomic.Int64
	filesW      atomic.Int64 // intermediate files finalized
	files       atomic.Int64 // files uploaded
	upBytes     atomic.Int64
	stmts       atomic.Int64 // application DML statements issued so far
	creditsHeld atomic.Int64
	acqDone     atomic.Bool // acquisition finalized, observable lock-free
	aborted     atomic.Bool
	acquireMu   sync.Mutex
	acquired    bool      // acquisition finalized
	drain       sync.Once // pipeline teardown
	finishSeq   sync.Once // report filing + table cleanup

	trace *obs.JobTrace
	// ctx is the node lifetime carrying trace: every CDW round trip of the
	// job runs under it.
	ctx    context.Context
	watch  stopwatch
	report JobReport
}

func (n *Node) newImportJob(m *wire.BeginLoad, tc obs.TraceContext) (*importJob, error) {
	if m.Layout == nil {
		return nil, fmt.Errorf("load request carries no layout")
	}
	conv, err := convert.NewConverter(m.Layout, m.Format, m.Delim, n.cfg.ConvertOpts)
	if err != nil {
		return nil, err
	}
	id := n.nextJob.Add(1)
	target := sqlparse.ParseTableName(m.Table)
	stage := sqlparse.TableName{Schema: stagingSchema, Name: fmt.Sprintf("job_%d", id)}
	stageDDL, err := sqlxlate.StagingDDL(stage, m.Layout)
	if err != nil {
		return nil, err
	}
	j := &importJob{
		id:      id,
		node:    n,
		req:     m,
		conv:    conv,
		stage:   stage,
		targets: target.String(),
	}
	j.watch.start = time.Now()
	n.nm.jobsStarted.Inc()
	j.trace = n.tracer.StartCtx(id, "import "+j.targets, tc)
	j.ctx = obs.WithJob(n.ctx, j.trace)
	j.et, j.uv = newErrTable(j.ctx, n, m.ErrTableET), newErrTable(j.ctx, n, m.ErrTableUV)
	j.lane = newStagingLane(j.ctx, n, j.stage, stageDDL,
		fmt.Sprintf("%s%d/", uploadPrefix, id), "copy", "stage")
	n.events.Add(obs.Event{
		Type: "job_start", Job: id, TraceID: j.trace.TraceID(),
		Msg: "import " + j.targets,
	})
	setupStart := time.Now()
	j.tr = &sqlxlate.Translator{
		Stage:      j.stage,
		StageAlias: "s",
		Layout:     m.Layout,
		SchemaMap:  n.cfg.SchemaMap,
	}

	if err := j.prepareTables(); err != nil {
		n.events.Add(obs.Event{
			Type: "job_fail", Job: id, TraceID: j.trace.TraceID(),
			Msg: "preparing job tables", Attrs: map[string]any{"err": err.Error()},
		})
		// The job trace is already open; settle it or the span leaks and
		// the SLO report under-counts failed setups forever.
		n.tracer.Finish(id)
		return nil, fmt.Errorf("preparing job tables: %w", err)
	}
	j.trace.Span("setup", "session", setupStart, 0, 0, nil)

	// spin up the pipeline
	cfg := n.cfg
	j.convCh = make(chan convTask, cfg.Converters)
	j.uploadCh = make(chan fwriter.FinishedFile, cfg.FileWriters*2)
	// Pre-size spool buffers from the rotation threshold: files rotate
	// shortly after crossing it, so this is the file's final size plus
	// slack (much less when gzip shrinks what actually lands in memory).
	hint := cfg.FileSizeThreshold + cfg.FileSizeThreshold/8
	if cfg.Gzip {
		hint = cfg.FileSizeThreshold / 4
	}
	j.memfs = fwriter.NewMemFSSized(hint)
	j.copyableCh = make(chan string, cfg.FileWriters*4)
	j.schedWG.Add(1)
	// Bounded by the upload stage: drainPipeline closes copyableCh after
	// the uploaders exit, which ends the scheduler loop.
	go j.runCopyScheduler()
	for w := 0; w < cfg.FileWriters; w++ {
		ch := make(chan writeTask, 2)
		j.writeChs = append(j.writeChs, ch)
		j.writeWG.Add(1)
		go j.runFileWriter(w, ch)
	}
	for i := 0; i < cfg.Converters; i++ {
		j.convWG.Add(1)
		go j.runConverter(i)
	}
	for u := 0; u < cfg.UploadParallelism; u++ {
		j.uploadWG.Add(1)
		go j.runUploader(u)
	}

	n.mu.Lock()
	n.imports[id] = j
	n.mu.Unlock()
	return j, nil
}

// prepareTables creates the job's staging table and recreates its error
// tables.
func (j *importJob) prepareTables() error {
	if err := j.lane.recreate(); err != nil {
		return err
	}
	if err := j.et.recreate(); err != nil {
		return err
	}
	return j.uv.recreate()
}

func dropIfExists(tn sqlparse.TableName) string {
	s, _ := sqlparse.Print(&sqlparse.DropTableStmt{Table: tn, IfExists: true}, sqlparse.DialectCDW)
	return s
}

func (j *importJob) fail(err error) {
	j.mu.Lock()
	first := j.failure == nil
	if first {
		j.failure = err
	}
	j.mu.Unlock()
	if first {
		j.node.nm.jobsFailed.Inc()
	}
	j.node.log.Error("import job failed", "job", j.id, "err", err)
}

// releaseCredit returns a credit to the pool and updates the live held count
// surfaced by /jobs/active.
func (j *importJob) releaseCredit(cr *credit.Credit) {
	cr.Release()
	j.creditsHeld.Add(-1)
}

func (j *importJob) failed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failure
}

// handleChunk is called by a session goroutine: the chunk has already been
// acknowledged; acquire a credit (the back-pressure point, §5) and hand the
// payload to the conversion stage. The owns directive seeds bufown: the
// pooled payload buffer arrives owned and must leave through putBuf or a
// hand-off on every path.
//
//etlvirt:owns m.Payload
func (j *importJob) handleChunk(m *wire.DataChunk) error {
	j.chunks.Add(1)
	j.bytesIn.Add(int64(len(m.Payload)))
	j.rowsIn.Add(int64(m.Count))
	nm := j.node.nm
	nm.chunks.Inc()
	nm.bytesIn.Add(int64(len(m.Payload)))
	nm.rowsIn.Add(int64(m.Count))
	top := int64(m.FirstRow + uint64(m.Count) - 1)
	for {
		cur := j.maxSeq.Load()
		if top <= cur || j.maxSeq.CompareAndSwap(cur, top) {
			break
		}
	}
	if j.acqFromNs.Load() == 0 {
		// First chunk starts the acquisition stopwatch; losing the CAS just
		// means another session's chunk arrived first.
		j.acqFromNs.CompareAndSwap(0, time.Now().UnixNano())
	}

	// The wait is bounded by the node lifetime: Close cancels n.ctx, which
	// wakes blocked acquisitions so shutdown never hangs on back-pressure.
	waitStart := time.Now()
	cr, err := j.node.credits.Acquire(j.node.ctx, int64(len(m.Payload)))
	j.trace.Span("credit_wait", "session", waitStart, int64(m.Count), int64(len(m.Payload)), err)
	if err != nil {
		putBuf(m.Payload) // never reached the converter; recycle here
		j.fail(err)
		j.pending.Done()
		return err
	}
	j.creditsHeld.Add(1)
	// Ownership of m.Payload transfers to the conversion stage with this
	// send; the session goroutine must not touch it afterwards.
	j.convCh <- convTask{payload: m.Payload, firstRow: int64(m.FirstRow), credit: cr}
	j.pending.Done()
	return nil
}

func (j *importJob) runConverter(idx int) {
	defer j.convWG.Done()
	nm := j.node.nm
	lane := fmt.Sprintf("convert-%d", idx)
	for task := range j.convCh {
		convStart := time.Now()
		payloadLen := len(task.payload)
		// The CSV buffer comes from the pool; ConvertInto appends into it and
		// hands it back as res.CSV.
		dst := getBuf(payloadLen + payloadLen/4)
		res, err := j.conv.ConvertInto(dst, task.payload, task.firstRow)
		// ConvertInto works on a private copy, so the payload buffer is
		// recyclable the moment it returns.
		putBuf(task.payload)
		nm.convertLat.ObserveDuration(time.Since(convStart))
		if err != nil {
			// ConvertInto hands the buffer back in the Result even on
			// error; recycle it or the pool shrinks by one chunk per
			// failure.
			putBuf(res.CSV)
			j.trace.Span("convert", lane, convStart, 0, int64(payloadLen), err)
			j.releaseCredit(task.credit)
			j.fail(err)
			continue
		}
		j.trace.Span("convert", lane, convStart, int64(res.Rows), int64(payloadLen), nil)
		if len(res.Errors) > 0 {
			nm.dataErrors.Add(int64(len(res.Errors)))
			j.mu.Lock()
			j.dataErrors = append(j.dataErrors, res.Errors...)
			j.mu.Unlock()
		}
		j.rowsConv.Add(int64(res.Rows))
		nm.rowsConverted.Add(int64(res.Rows))
		if res.Rows == 0 {
			putBuf(res.CSV) // no writer will consume it
			j.releaseCredit(task.credit)
			continue
		}
		// Ownership of res.CSV transfers to the file-writer stage; it returns
		// the buffer to the pool once the bytes are on disk.
		w := int(j.rr.Add(1)) % len(j.writeChs)
		j.writeChs[w] <- writeTask{csv: res.CSV, rows: res.Rows, credit: task.credit}
	}
}

func (j *importJob) runFileWriter(idx int, ch chan writeTask) {
	defer j.writeWG.Done()
	nm := j.node.nm
	lane := fmt.Sprintf("write-%d", idx)
	w := fwriter.NewWriter(j.memfs, fwriter.Config{
		SizeThreshold: j.node.cfg.FileSizeThreshold,
		Gzip:          j.node.cfg.Gzip,
		NamePrefix:    fmt.Sprintf("job%d-w%d-", j.id, idx),
		OnRotate: func(f fwriter.FinishedFile, d time.Duration) {
			nm.rotateLat.ObserveDuration(d)
			nm.filesWritten.Inc()
			j.filesW.Add(1)
			j.trace.Add(obs.Span{Stage: "rotate", Worker: lane,
				Start: time.Now().Add(-d), Dur: d, Rows: int64(f.Rows), Bytes: int64(f.Bytes)})
		},
	})
	for task := range ch {
		// The credit returns to the pool just before the data is written to
		// disk (§5, Figure 4).
		j.releaseCredit(task.credit)
		writeStart := time.Now()
		csvBytes := int64(len(task.csv))
		err := w.Write(task.csv, task.rows)
		// Write copies the bytes into the spool file, so the CSV buffer's
		// trip through the pipeline ends here. The span reads the length
		// captured above: after putBuf the pool may recycle the buffer into
		// another chunk, so task.csv must not be touched again.
		putBuf(task.csv)
		j.trace.Span("write", lane, writeStart, int64(task.rows), csvBytes, err)
		if err != nil {
			j.fail(err)
			continue
		}
		for _, f := range w.TakeFinished() {
			j.uploadCh <- f
		}
	}
	files, err := w.Flush()
	if err != nil {
		j.fail(err)
		return
	}
	for _, f := range files {
		j.uploadCh <- f
	}
}

func (j *importJob) runUploader(idx int) {
	defer j.uploadWG.Done()
	lane := fmt.Sprintf("upload-%d", idx)
	for f := range j.uploadCh {
		data, ok := j.memfs.Bytes(f.Name)
		if !ok {
			j.fail(fmt.Errorf("finished file %s missing from spool", f.Name))
			continue
		}
		n, err := j.lane.upload(lane, f.Name, data, int64(f.Rows))
		j.memfs.Remove(f.Name)
		if err != nil {
			j.fail(err)
			continue
		}
		j.files.Add(1)
		j.upBytes.Add(n)
		// Hand the uploaded object to the copy scheduler; the send blocks
		// only while a COPY batch is in flight, which is the lane's natural
		// back-pressure.
		landed := f.Name
		j.copyQueue.Add(1)
		j.copyableCh <- landed
	}
}

// finishAcquisition drains the pipeline (uploading and COPYing whatever
// remains), verifies the staged total, and records acquisition data errors.
func (j *importJob) finishAcquisition() (*wire.AcquireDone, error) {
	j.acquireMu.Lock()
	defer j.acquireMu.Unlock()
	if j.acquired {
		return j.acquireReply(), nil
	}
	j.drainPipeline()
	if err := j.failed(); err != nil {
		return nil, err
	}

	// Every uploaded file has passed through the copy scheduler by now
	// (drainPipeline joins it after the uploaders), so stagedN already covers
	// the barrier sweep.
	if staged := j.stagedN; staged != j.rowsConv.Load() {
		return nil, fmt.Errorf("staging row count %d does not match converted %d", staged, j.rowsConv.Load())
	}

	// record acquisition data errors in the ET table
	j.mu.Lock()
	dataErrs := j.dataErrors
	j.mu.Unlock()
	for _, de := range dataErrs {
		if err := j.et.add(de.Row, de.Row, de.Code, de.Field, de.Msg); err != nil {
			return nil, err
		}
	}
	if err := j.et.flush(); err != nil {
		return nil, err
	}
	j.watch.acqTo = time.Now()
	j.acquired = true
	j.acqDone.Store(true)
	return j.acquireReply(), nil
}

func (j *importJob) acquireReply() *wire.AcquireDone {
	return &wire.AcquireDone{
		JobID:      j.id,
		RowsStaged: uint64(j.rowsConv.Load()),
		DataErrors: uint64(len(j.dataErrors)),
	}
}

// drainPipeline stops the conversion/write/upload/copy stages and waits for
// them to exit. Idempotent; safe after a client disconnect.
func (j *importJob) drainPipeline() {
	j.drain.Do(func() {
		j.pending.Wait()
		close(j.convCh)
		j.convWG.Wait()
		for _, ch := range j.writeChs {
			close(ch)
		}
		j.writeWG.Wait()
		close(j.uploadCh)
		j.uploadWG.Wait()
		// Every upload has landed; closing the channel makes the scheduler
		// sweep its remaining manifest as the barrier COPY.
		close(j.copyableCh)
		j.schedWG.Wait()
	})
}

// abort tears down a job whose client went away: the pipeline is drained and
// the job's CDW state removed, without running COPY or the application
// phase.
func (j *importJob) abort() {
	j.aborted.Store(true)
	j.node.nm.jobsAborted.Inc()
	j.acquireMu.Lock()
	j.drainPipeline()
	j.acquireMu.Unlock()
	j.node.log.Warn("import job aborted by client disconnect", "job", j.id)
	j.finish()
}

// classifyCDWError maps an apply-phase failure onto the adaptive error
// handler's verdicts. Shared by the discrete import path and the streaming
// path.
func classifyCDWError(err error) errhandle.Classified {
	var ex *retrier.Exhausted
	if errors.As(err, &ex) {
		// Retries gave up on an infrastructure failure: poison the job
		// instead of splitting — adaptive splitting is for per-tuple data
		// errors, and re-driving a dead CDW would burn the whole budget.
		return errhandle.Classified{Fatal: true, Msg: err.Error()}
	}
	ce, ok := err.(*cdw.Error)
	if !ok {
		return errhandle.Classified{Fatal: true, Msg: err.Error()}
	}
	switch {
	case ce.Code == cdw.CodeUniqueness:
		return errhandle.Classified{Code: ce.Code, Field: ce.Field, Msg: ce.Msg, Unique: true}
	case cdw.Structural(ce.Code):
		return errhandle.Classified{Fatal: true, Code: ce.Code, Msg: ce.Msg}
	default:
		return errhandle.Classified{Code: ce.Code, Field: ce.Field, Msg: ce.Msg}
	}
}

// errhandleConfig builds the adaptive error handler's config for one apply
// phase: zero limits fall back to the node defaults, and every attempted
// statement feeds the DML metrics and lands as a "dml" span on the job's
// worker lane. onStmt, when non-nil, additionally observes each statement.
func (n *Node) errhandleConfig(maxErrors, maxRetries int, trace *obs.JobTrace, worker string, onStmt func()) errhandle.Config {
	if maxErrors == 0 {
		maxErrors = n.cfg.MaxErrors
	}
	if maxRetries == 0 {
		maxRetries = n.cfg.MaxRetries
	}
	nm := n.nm
	return errhandle.Config{
		MaxErrors:  maxErrors,
		MaxRetries: maxRetries,
		Observe: func(depth int, lo, hi int64, d time.Duration, err error) {
			nm.dmlStatements.Inc()
			nm.dmlLat.ObserveDuration(d)
			if onStmt != nil {
				onStmt()
			}
			if err != nil {
				nm.splitDepth.Observe(float64(depth))
			}
			trace.Add(obs.Span{Stage: "dml", Worker: worker,
				Start: time.Now().Add(-d), Dur: d, Rows: hi - lo + 1, Depth: depth,
				Err: errString(err)})
		},
	}
}

// applyDML runs the application phase: translate the legacy DML, set up
// uniqueness emulation for inserts into keyed tables, and drive the adaptive
// error handler over the staged row range.
func (j *importJob) applyDML(m *wire.ApplyDML) (*wire.ApplyResult, error) {
	if !j.acquired {
		return nil, fmt.Errorf("apply requested before acquisition finished")
	}
	j.watch.appFrom = time.Now()
	dml, err := j.tr.TranslateDML(m.SQL)
	if err != nil {
		return nil, fmt.Errorf("cross-compiling DML: %w", err)
	}

	// Uniqueness emulation (§7): the CDW does not enforce the target's
	// primary key or UNIQUE constraints, so collisions must be detected with
	// queries, two per key.
	type dupCheck struct {
		q     *sqlxlate.RangeStmt
		intra bool // repeats within the range; a single row cannot repeat itself
	}
	var checks []dupCheck
	var keys []sqlxlate.Key
	var meta *cdwnet.TableMeta
	if dml.Kind == sqlxlate.DMLInsert {
		if meta, err = j.node.pool.Meta(j.ctx, dml.Target.String()); err != nil {
			return nil, fmt.Errorf("describing target: %w", err)
		}
		if keys, err = uniqueKeys(dml, meta); err != nil {
			return nil, err
		}
		for _, k := range keys {
			intraQ, targetQ, err := j.tr.DupCheckQueries(dml, k.Cols, k.Exprs)
			if err != nil {
				return nil, err
			}
			checks = append(checks, dupCheck{intraQ, true}, dupCheck{targetQ, false})
		}
	}

	var upsertUpdated, upsertInserted int64
	var probed keyVerdict
	apply := func(ctx context.Context, lo, hi int64) (int64, error) {
		for _, c := range checks {
			if c.intra && lo == hi || probed.settles(lo, hi) {
				continue
			}
			tmpl, err := c.q.Template()
			if err != nil {
				return 0, err
			}
			_, rows, err := j.node.pool.Read(j.ctx, cdwnet.Range(tmpl, lo, hi))
			if err != nil {
				return 0, err
			}
			if len(rows) == 1 && rows[0][0].I > 0 {
				// Legacy precedence: a tuple whose transformation, column
				// cast or NOT NULL test fails is an ET error even if its key
				// also collides, because the legacy engine checks those
				// before its keys. For an isolated tuple, probe them first
				// and surface their error instead of the collision.
				if lo == hi {
					if perr := j.probeRow(dml, meta, lo); perr != nil {
						return 0, perr
					}
				}
				return 0, &cdw.Error{Code: cdw.CodeUniqueness,
					Msg: "duplicate unique key value"}
			}
		}
		tmpl, err := dml.Apply.Template()
		if err != nil {
			return 0, err
		}
		a1, err := j.node.pool.Write(j.ctx, cdwnet.Range(tmpl, lo, hi))
		if err != nil {
			return 0, err
		}
		if dml.ApplySecond == nil {
			return a1, nil
		}
		// upsert: the guarded INSERT half runs after the UPDATE half; both
		// are idempotent per range, so a failure here safely re-applies on
		// sub-ranges.
		tmpl2, err := dml.ApplySecond.Template()
		if err != nil {
			return 0, err
		}
		a2, err := j.node.pool.Write(j.ctx, cdwnet.Range(tmpl2, lo, hi))
		if err != nil {
			return 0, err
		}
		upsertUpdated += a1
		upsertInserted += a2
		return a1 + a2, nil
	}

	nm := j.node.nm
	record := func(lo, hi int64, c errhandle.Classified) error {
		switch {
		case c.Code == errhandle.CodeMaxErrors:
			nm.errorsET.Inc()
			return j.et.add(lo, hi, c.Code, c.Field,
				fmt.Sprintf("Max number of errors reached during DML on %s, row numbers: (%d, %d)", j.targets, lo, hi))
		case c.Unique:
			nm.errorsUV.Inc()
			return j.uv.add(lo, hi, c.Code, c.Field,
				fmt.Sprintf("%s during DML on %s, row number: %d%s", c.Msg, j.targets, lo, j.stagedTupleSuffix(lo)))
		default:
			if c.Field == "" && lo == hi {
				// isolate the offending input field by probing each insert
				// expression against the single staged row
				c.Field = j.probeField(dml, lo)
			}
			nm.errorsET.Inc()
			return j.et.add(lo, hi, c.Code, c.Field,
				fmt.Sprintf("%s during DML on %s, row number: %d", c.Msg, j.targets, lo))
		}
	}

	cfg := j.node.errhandleConfig(int(j.req.MaxErrors), int(j.req.MaxRetries), j.trace, "beta",
		func() { j.stmts.Add(1) })
	if dml.Kind == sqlxlate.DMLInsert {
		cfg.Locate = j.locator(dml, keys, &probed)
	}
	h := errhandle.New(cfg, apply, classifyCDWError, record)
	maxSeq := j.maxSeq.Load()
	// The adaptive run derives from the node lifetime so Close aborts the
	// application phase between statements instead of letting it drive a
	// closed pool.
	applyStart := time.Now()
	runErr := h.Run(j.node.ctx, 1, maxSeq)
	for _, t := range []*errTable{j.et, j.uv} {
		if err := t.flush(); err != nil && runErr == nil {
			runErr = err
		}
	}
	st := h.Stats()
	j.trace.Span("apply", "beta", applyStart, st.Activity, 0, runErr)
	nm.adaptiveSplits.Add(st.Splits)
	nm.blockErrors.Add(st.BlockErrors)
	nm.locates.Add(st.Locates)
	nm.locateMisses.Add(st.LocateMisses)
	if runErr != nil {
		return nil, runErr
	}
	j.watch.appTo = time.Now()

	errsET, errsUV := j.applyErrors()
	res := &wire.ApplyResult{JobID: j.id, ErrorsET: uint64(errsET), ErrorsUV: uint64(errsUV)}
	switch dml.Kind {
	case sqlxlate.DMLInsert:
		res.Inserted = uint64(st.Activity)
	case sqlxlate.DMLUpdate:
		res.Updated = uint64(st.Activity)
	case sqlxlate.DMLDelete:
		res.Deleted = uint64(st.Activity)
	case sqlxlate.DMLUpsert:
		res.Updated = uint64(upsertUpdated)
		res.Inserted = uint64(upsertInserted)
	}
	nm.rowsInserted.Add(int64(res.Inserted))
	nm.rowsUpdated.Add(int64(res.Updated))
	nm.rowsDeleted.Add(int64(res.Deleted))
	j.report.ApplyStmts = st.Attempts
	j.report.BlockErrors = st.BlockErrors
	j.report.Splits = st.Splits
	j.report.MaxSplitDepth = st.MaxDepth
	j.report.Locates = st.Locates
	j.report.LocateMisses = st.LocateMisses
	j.report.Inserted = int64(res.Inserted)
	j.report.Updated = int64(res.Updated)
	j.report.Deleted = int64(res.Deleted)
	j.report.ErrorsET = errsET
	j.report.ErrorsUV = errsUV
	return res, nil
}

// applyErrors returns how many ET and UV rows the apply phase recorded. The
// ET table also holds the acquisition rejects, which an import reports as
// DataErrors; all of them are recorded before acqDone is set, and the
// slice never grows again.
func (j *importJob) applyErrors() (et, uv int64) {
	if !j.acqDone.Load() {
		return 0, 0
	}
	return j.et.count() - int64(len(j.dataErrors)), j.uv.count()
}

// keyVerdict is what a located split's probe settled about the insert's
// keys: over rows lo..hi, only the rows in named can collide with the
// target or with an earlier row of the range. The zero value settles
// nothing.
type keyVerdict struct {
	probed bool
	lo, hi int64
	named  []int64 // sorted, distinct
}

// settles reports whether rows lo..hi need no duplicate-key check: they lie
// inside the probed range and the probe named none of them for a key.
// Exact because a located split and the bisection of a gap apply rows in
// ascending __seq order, so when lo..hi is applied the target holds what
// the probe saw plus earlier rows of the probed range, and an unnamed row
// collides with neither.
func (v *keyVerdict) settles(lo, hi int64) bool {
	if !v.probed || lo < v.lo || hi > v.hi {
		return false
	}
	i, _ := slices.BinarySearch(v.named, lo)
	return i == len(v.named) || v.named[i] > hi
}

// locator returns the adaptive handler's Locate for an insert job, which
// also records the probe's key verdict in kv. The sqlxlate.LocateQuery
// probe is built on the first failure, so a clean job pays nothing for it.
func (j *importJob) locator(dml *sqlxlate.DML, keys []sqlxlate.Key, kv *keyVerdict) func(context.Context, int64, int64) ([]int64, error) {
	var probe *sqlxlate.RangeStmt
	return func(_ context.Context, lo, hi int64) ([]int64, error) {
		if probe == nil {
			var err error
			if probe, err = j.tr.LocateQuery(dml, keys); err != nil || probe == nil {
				return nil, err
			}
		}
		start := time.Now()
		seqs, keyNamed, err := j.locate(probe, lo, hi)
		j.trace.Span("locate", "beta", start, int64(len(seqs)), 0, err)
		if err == nil {
			*kv = keyVerdict{probed: true, lo: lo, hi: hi, named: keyNamed}
		}
		return seqs, err
	}
}

// locate runs the probe over rows lo..hi and returns the sorted, distinct
// __seq values it names, and among them those a key branch named.
func (j *importJob) locate(probe *sqlxlate.RangeStmt, lo, hi int64) (seqs, keyNamed []int64, err error) {
	tmpl, err := probe.Template()
	if err != nil {
		return nil, nil, err
	}
	_, rows, err := j.node.pool.Read(j.ctx, cdwnet.Range(tmpl, lo, hi))
	if err != nil {
		return nil, nil, err
	}
	seqs = make([]int64, len(rows))
	for i, r := range rows {
		seqs[i] = r[0].I
		if r[1].I != 0 {
			keyNamed = append(keyNamed, r[0].I)
		}
	}
	slices.Sort(seqs)
	slices.Sort(keyNamed)
	return slices.Compact(seqs), slices.Compact(keyNamed), nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// probeRow checks the single staged row seq the way the legacy engine
// checks a row before its keys: it evaluates every insert expression, casts
// each value to its target column's type, then tests the NOT NULL columns,
// and returns the first error that raises. One statement does the first
// two steps; a second one, sent only when that fails, tells a failing
// expression from a failing cast, and a failing cast names its column as
// the insert would.
func (j *importJob) probeRow(dml *sqlxlate.DML, meta *cdwnet.TableMeta, seq int64) error {
	ords := make([]int, len(dml.OrderedExprs)) // target column of each value, -1 if none
	var exprs, casts []string
	for i, e := range dml.OrderedExprs {
		ords[i] = i
		if len(dml.Columns) > 0 {
			if i >= len(dml.Columns) {
				return nil // a value past the column list feeds no column
			}
			ords[i] = slices.IndexFunc(meta.Columns, func(c cdwnet.ResultCol) bool {
				return strings.EqualFold(c.Name, dml.Columns[i])
			})
		}
		txt, err := sqlparse.PrintExpr(e, sqlparse.DialectCDW)
		if err != nil || ords[i] < 0 || ords[i] >= len(meta.Columns) {
			return nil
		}
		exprs = append(exprs, txt)
		cast, err := sqlparse.PrintExpr(&sqlparse.CastExpr{X: e, Type: typeName(meta.Columns[ords[i]].Type)}, sqlparse.DialectCDW)
		if err != nil {
			return nil
		}
		casts = append(casts, cast)
	}
	// read keeps the engine's error only: after a transport failure the
	// collision stands, as it did before the probe.
	read := func(items ...string) ([]cdw.Datum, *cdw.Error) {
		sql := fmt.Sprintf("SELECT %s FROM %s s WHERE s.%s = %d",
			strings.Join(items, ", "), j.stage.String(), sqlxlate.SeqColumn, seq)
		_, rows, err := j.node.pool.Read(j.ctx, cdwnet.Stmt{SQL: sql})
		if ce, ok := err.(*cdw.Error); ok {
			return nil, ce
		}
		if err != nil || len(rows) != 1 {
			return nil, nil
		}
		return rows[0], nil
	}
	vals, ce := read(append(exprs, casts...)...)
	if ce != nil {
		if _, ce := read(exprs...); ce != nil {
			return ce
		}
		for i, c := range casts {
			if _, ce := read(c); ce != nil {
				if ce.Field == "" {
					ce.Field = meta.Columns[ords[i]].Name
				}
				return ce
			}
		}
	}
	if len(vals) != 2*len(exprs) {
		return nil
	}
	fed := make(map[int]cdw.Datum, len(casts))
	for i, ord := range ords {
		fed[ord] = vals[len(exprs)+i]
	}
	for ord, c := range meta.Columns {
		if ord >= len(meta.NotNull) || !meta.NotNull[ord] {
			continue
		}
		v, ok := fed[ord]
		if ok && v.IsNull() || !ok && (ord >= len(meta.Defaults) || meta.Defaults[ord] == "") {
			return &cdw.Error{Code: cdw.CodeNotNull, Field: c.Name,
				Msg: fmt.Sprintf("NULL value in NOT NULL column %s", c.Name)}
		}
	}
	return nil
}

// probeField evaluates each rewritten insert expression against the single
// staged row seq to discover which input field a conversion error comes
// from — the CDW reports expression failures without field attribution, so
// the virtualizer reconstructs it (ERRFIELD in Figure 5).
func (j *importJob) probeField(dml *sqlxlate.DML, seq int64) string {
	for _, e := range dml.OrderedExprs {
		txt, err := sqlparse.PrintExpr(e, sqlparse.DialectCDW)
		if err != nil {
			continue
		}
		sql := fmt.Sprintf("SELECT %s FROM %s s WHERE s.%s = %d",
			txt, j.stage.String(), sqlxlate.SeqColumn, seq)
		if _, _, err := j.node.pool.Read(j.ctx, cdwnet.Stmt{SQL: sql}); err != nil {
			if fields := sqlxlate.StageFields(e, "s"); len(fields) > 0 {
				return fields[0]
			}
			return ""
		}
	}
	return ""
}

// stagedTupleSuffix renders the staged tuple for UV error messages, matching
// the legacy habit of recording the violating tuple itself (Figure 5c).
func (j *importJob) stagedTupleSuffix(seq int64) string {
	sel := fmt.Sprintf("SELECT * FROM %s WHERE %s = %d",
		j.stage.String(), sqlxlate.SeqColumn, seq)
	_, rows, err := j.node.pool.Read(j.ctx, cdwnet.Stmt{SQL: sel})
	if err != nil || len(rows) != 1 {
		return ""
	}
	var parts []string
	for _, d := range rows[0][1:] { // skip __seq
		parts = append(parts, d.Render())
	}
	return ", tuple: " + strings.Join(parts, "|")
}

// uniqueKeys resolves the insert expressions feeding each uniqueness
// constraint of the target: the primary key, then every UNIQUE constraint,
// the order the legacy engine checks them in. A key that can never collide
// is left out.
func uniqueKeys(dml *sqlxlate.DML, meta *cdwnet.TableMeta) ([]sqlxlate.Key, error) {
	var keys []sqlxlate.Key
	for _, cols := range append([][]string{meta.PrimaryKey}, meta.Unique...) {
		k, ok, err := insertKey(dml, meta, cols)
		if err != nil {
			return nil, err
		}
		if ok {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// insertKey resolves the expressions feeding the key columns cols: the
// insert's own, or the column's DEFAULT where the insert leaves a column
// out. ok is false when cols is empty or a column is left out without a
// DEFAULT: that column is NULL on every row, so the key never collides.
// Shared by the discrete import path and the streaming path.
func insertKey(dml *sqlxlate.DML, meta *cdwnet.TableMeta, cols []string) (k sqlxlate.Key, ok bool, err error) {
	for _, col := range cols {
		ord := -1
		for i, c := range meta.Columns {
			if strings.EqualFold(c.Name, col) {
				ord = i
				break
			}
		}
		e, fed := dml.NamedInsertExpr(col)
		if !fed && ord >= 0 {
			e, fed = dml.PositionalInsertExpr(ord)
		}
		if !fed {
			if ord < 0 || ord >= len(meta.Defaults) || meta.Defaults[ord] == "" {
				return sqlxlate.Key{}, false, nil
			}
			if e, err = sqlparse.ParseExpr(meta.Defaults[ord], sqlparse.DialectCDW); err != nil {
				return sqlxlate.Key{}, false, fmt.Errorf("default of %s: %w", col, err)
			}
		}
		k.Exprs = append(k.Exprs, e)
		k.Cols = append(k.Cols, col)
	}
	return k, len(k.Cols) > 0, nil
}

// finish tears the job down: drop staging, delete uploaded objects, file the
// report.
func (j *importJob) finish() *JobReport {
	j.finishSeq.Do(func() {
		j.lane.close()
		j.report.JobID = j.id
		j.report.Target = j.targets
		j.report.Chunks = j.chunks.Load()
		j.report.BytesIn = j.bytesIn.Load()
		j.report.RowsIn = j.rowsIn.Load()
		j.report.RowsStaged = j.rowsConv.Load()
		j.report.DataErrors = int64(len(j.dataErrors))
		j.report.FilesWritten = j.files.Load()
		j.report.BytesUpload = j.upBytes.Load()
		j.report.CopyBatches = j.batchesN.Load()
		if ns := j.acqFromNs.Load(); ns != 0 {
			j.watch.acqFrom = time.Unix(0, ns)
		}
		j.watch.fill(&j.report, time.Now())
		j.node.record(j.report)
		evType := "job_finish"
		if j.aborted.Load() {
			evType = "job_abort"
		} else {
			j.node.nm.jobsCompleted.Inc()
		}
		j.node.events.Add(obs.Event{
			Type: evType, Job: j.id, TraceID: j.trace.TraceID(), Msg: "import " + j.targets,
			Attrs: map[string]any{
				"rows_staged": j.rowsConv.Load(),
				"data_errors": len(j.dataErrors),
			},
		})
		j.node.tracer.Finish(j.id)
		j.node.mu.Lock()
		delete(j.node.imports, j.id)
		j.node.mu.Unlock()
	})
	return &j.report
}
