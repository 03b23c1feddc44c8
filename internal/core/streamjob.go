package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/convert"
	"etlvirt/internal/errhandle"
	"etlvirt/internal/obs"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// opRun is a maximal run of consecutive same-class deltas inside one
// micro-batch: either upsert images (insert/update) or delete images. Runs
// are applied in delta-sequence order, which reproduces the tuple-at-a-time
// ordering of a legacy CDC apply with set-oriented statements: within an
// upsert run the CDW's UPDATE ... FROM applies matching images in staged
// (__seq) order so the last image of a key wins, and class boundaries order
// deletes against upserts of the same key.
type opRun struct {
	del    bool  // delete run; otherwise an upsert (insert/update) run
	lo, hi int64 // inclusive delta-sequence range
}

// errStreamDupRange forces an adaptive split: the guarded INSERT half of an
// upsert run is only correct when each key appears at most once in the
// range — two images of an unseen key would both pass the NOT EXISTS guard
// in one set-oriented statement. The intra-range duplicate probe raises this
// sentinel so errhandle halves the range; a singleton can never carry a
// duplicate, so the split always terminates without recording an error.
var errStreamDupRange = errors.New("duplicate key images in upsert range")

// streamSpoolCap cuts a micro-batch whose CSV spool reaches 4 MiB before its
// row hint does, so wide records never buffer unbounded CSV.
const streamSpoolCap = 4 << 20

// streamJob is one long-lived streaming session: it stays open after logon,
// ingests continuous CDC deltas as adaptively sized micro-batches, and
// checkpoints a durable watermark per committed batch so a killed stream
// resumes without double-applying replayed deltas.
//
// Unlike importJob's parallel pipeline, a stream is serviced entirely by its
// session goroutine: the legacy protocol is strictly request/response, so
// delayed DeltaAcks while a batch commits are the stream's backpressure. A
// frame holds a credit only while it converts, like an import chunk, and
// streamSpoolCap bounds the buffered batch.
type streamJob struct {
	id   uint64
	node *Node
	req  *wire.BeginStream

	ckpt     sqlparse.TableName // durable watermark table (shared, one row per stream)
	etName   sqlparse.TableName
	tr       *sqlxlate.Translator
	conv     *convert.Converter
	sd       *sqlxlate.StreamDML
	intraDup *sqlxlate.RangeStmt // duplicate-key probe over an upsert run
	ctrl     *stream.Controller
	targets  string
	started  time.Time

	// watermark is the highest delta sequence durably applied to the CDW,
	// mirroring the checkpoint row. Deltas at or below it are replays.
	watermark int64

	// Current micro-batch accumulation. Only the session goroutine touches
	// these; a stream has exactly one connection. Upsert and delete images
	// share one spool and one staging table: every staged __seq inside an op
	// run belongs to that run's class, so each range statement sees only its
	// own images. The spool is a pooled buffer owned by the job from its
	// getBuf in bufferDelta until finish's putBuf.
	lane             *stagingLane
	csv              []byte //etlvirt:owns
	rows             int    // rows staged this batch
	runs             []opRun
	dataErrs         []convert.DataError
	batchLo, batchHi int64 // fresh delta range buffered; batchLo == 0 means empty
	batchBytes       int
	batchStart       time.Time
	batchNo          int64

	// Per-stage time accumulated across the current micro-batch, fed to the
	// controller and the per-stage histograms at commit so every grow/shrink
	// decision is attributable to the stage driving it. frameAcc is the
	// session-side frame ingest time, reported separately (it overlaps the
	// spool stage rather than extending the commit path).
	stageAcc stream.Stages
	frameAcc time.Duration

	// oldestLiveNs is the arrival time (UnixNano) of the oldest buffered,
	// not-yet-committed delta; 0 when the batch is empty. The per-stream
	// watermark-lag gauge reads it from debug-server goroutines.
	oldestLiveNs atomic.Int64

	// lastStat is the most recent commit's controller view for /streams;
	// statMu guards it against debug-server readers.
	statMu   sync.Mutex
	lastStat streamCommitStat

	// Whole-stream counters; atomics because /jobs/active reads them from
	// debug-server goroutines while the stream runs. wmLive/hintLive mirror
	// the session-goroutine-owned watermark and controller hint for the same
	// reason.
	deltas   atomic.Int64
	replayed atomic.Int64
	batches  atomic.Int64
	inserted atomic.Int64
	updated  atomic.Int64
	deleted  atomic.Int64
	errsET   atomic.Int64
	wmLive   atomic.Int64
	hintLive atomic.Int64

	finishSeq sync.Once
	trace     *obs.JobTrace
}

// streamCommitStat is the last committed micro-batch's controller view,
// snapshotted for the /streams debug endpoint.
type streamCommitStat struct {
	rows     int
	latency  time.Duration
	action   string
	dominant string
	stages   map[string]time.Duration
}

// traceID renders the stream's distributed trace ID for event records.
func (j *streamJob) traceID() string {
	tc := j.trace.Context()
	if !tc.Valid() {
		return ""
	}
	return obs.FormatTraceID(tc.TraceID)
}

// newStreamJob opens (or resumes) a stream. The stream's name is its durable
// identity: the checkpoint table keeps one watermark row per name, so a
// re-opened stream resumes from where its last incarnation committed. Only a
// fresh stream (no checkpoint row yet) recreates the error table — a resumed
// one must keep the entries of already-committed batches.
func (n *Node) newStreamJob(m *wire.BeginStream, tc obs.TraceContext) (*streamJob, error) {
	if m.Layout == nil {
		return nil, fmt.Errorf("stream request carries no layout")
	}
	if m.Name == "" {
		return nil, fmt.Errorf("stream request carries no name")
	}
	conv, err := convert.NewConverter(m.Layout, m.Format, m.Delim, n.cfg.ConvertOpts)
	if err != nil {
		return nil, err
	}
	id := n.nextJob.Add(1)
	j := &streamJob{
		id:      id,
		node:    n,
		req:     m,
		conv:    conv,
		ckpt:    sqlparse.TableName{Schema: stagingSchema, Name: "stream_checkpoints"},
		etName:  parseQualifiedName(m.ErrTableET),
		started: time.Now(),
	}
	stage := sqlparse.TableName{Schema: stagingSchema, Name: fmt.Sprintf("stream_%d", id)}
	j.tr = &sqlxlate.Translator{
		Stage:      stage,
		StageAlias: "s",
		Layout:     m.Layout,
		SchemaMap:  n.cfg.SchemaMap,
	}

	// Translate once as a plain insert DML to resolve the CDW target name and
	// the expressions feeding it, then derive the streaming triple.
	dml, err := j.tr.TranslateDML(m.SQL)
	if err != nil {
		return nil, fmt.Errorf("cross-compiling stream apply DML: %w", err)
	}
	if dml.Kind != sqlxlate.DMLInsert {
		return nil, fmt.Errorf("stream apply DML must be an INSERT")
	}
	j.targets = dml.Target.String()
	meta, err := n.pool.Describe(dml.Target.String())
	if err != nil {
		return nil, fmt.Errorf("describing stream target: %w", err)
	}
	if len(meta.PrimaryKey) == 0 {
		return nil, fmt.Errorf("stream target %s has no primary key; CDC deltas need one to identify rows", j.targets)
	}
	targetCols := make([]string, len(meta.Columns))
	for i, c := range meta.Columns {
		targetCols[i] = c.Name
	}
	j.sd, err = j.tr.TranslateStreamDML(m.SQL, stage, targetCols, meta.PrimaryKey)
	if err != nil {
		return nil, err
	}
	// Streams are keyed by the primary key alone; UNIQUE constraints are not
	// emulated on this path (DESIGN.md).
	k, ok, err := insertKey(dml, meta, meta.PrimaryKey)
	if err != nil {
		return nil, err
	}
	if ok {
		if j.intraDup, _, err = j.tr.DupCheckQueries(dml, k.Cols, k.Exprs); err != nil {
			return nil, err
		}
	}

	// Durable checkpoint: create the table if needed, then read or seed this
	// stream's watermark row.
	ckptDDL, err := sqlxlate.CheckpointTableDDL(j.ckpt)
	if err != nil {
		return nil, err
	}
	if _, err := n.pool.Exec(ckptDDL); err != nil {
		return nil, fmt.Errorf("preparing checkpoint table: %w", err)
	}
	selSQL, err := j.ckptSelect()
	if err != nil {
		return nil, err
	}
	_, rows, err := n.pool.QueryAll(selSQL)
	if err != nil {
		return nil, fmt.Errorf("reading stream checkpoint: %w", err)
	}
	if len(rows) == 0 {
		// Fresh stream: seed the watermark and start the error table clean.
		ins := &sqlparse.InsertStmt{Table: j.ckpt, Rows: [][]sqlparse.Expr{{
			&sqlparse.Literal{Kind: sqlparse.LitString, Str: m.Name},
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: 0},
		}}}
		insSQL, err := sqlparse.Print(ins, sqlparse.DialectCDW)
		if err != nil {
			return nil, err
		}
		if _, err := n.pool.Exec(insSQL); err != nil {
			return nil, fmt.Errorf("seeding stream checkpoint: %w", err)
		}
		if j.etName.Name != "" {
			etDDL, err := sqlxlate.ErrorTableDDL(j.etName)
			if err != nil {
				return nil, err
			}
			for _, s := range []string{dropIfExists(j.etName), etDDL} {
				if _, err := n.pool.Exec(s); err != nil {
					return nil, fmt.Errorf("preparing stream error table: %w", err)
				}
			}
		}
	} else {
		j.watermark = rows[0][0].I
	}

	target := streamLatencyTarget
	if m.LatencyTargetMS > 0 {
		target = time.Duration(m.LatencyTargetMS) * time.Millisecond
	}
	j.ctrl = stream.NewController(stream.Config{
		Target:   target,
		MinBatch: n.cfg.StreamMinBatch,
		MaxBatch: n.cfg.StreamMaxBatch,
	})

	j.wmLive.Store(j.watermark)
	j.hintLive.Store(int64(j.ctrl.Hint().BatchRows))
	n.nm.streamsOpened.Inc()
	j.trace = n.tracer.StartCtx(id, "stream "+m.Name, tc)
	j.lane = newStagingLane(n, j.trace, stage, m.Layout, fmt.Sprintf("%sstream%d/", uploadPrefix, id), "stream_copy", "stream")
	n.events.Add(obs.Event{
		Type: "stream_open", Job: id, TraceID: j.traceID(), Msg: m.Name,
		Attrs: map[string]any{
			"target":    j.targets,
			"watermark": j.watermark,
			"slo_ms":    j.ctrl.Target().Milliseconds(),
		},
	})
	n.mu.Lock()
	n.streams[id] = j
	n.mu.Unlock()
	n.log.Info("stream opened", "stream", j.id, "name", m.Name, "target", j.targets,
		"watermark", j.watermark, "latency_target", j.ctrl.Target())
	return j, nil
}

// ckptSelect builds the watermark lookup for this stream's name.
func (j *streamJob) ckptSelect() (string, error) {
	sel := &sqlparse.SelectStmt{
		Items: []sqlparse.SelectItem{{Expr: &sqlparse.ColRef{Name: "WATERMARK"}}},
		From:  []sqlparse.TableExpr{&sqlparse.TableRef{Table: j.ckpt}},
		Where: &sqlparse.BinaryExpr{Op: "=",
			L: &sqlparse.ColRef{Name: "STREAM_NAME"},
			R: &sqlparse.Literal{Kind: sqlparse.LitString, Str: j.req.Name}},
	}
	return sqlparse.Print(sel, sqlparse.DialectCDW)
}

// ckptUpdate builds the watermark advance to hi.
func (j *streamJob) ckptUpdate(hi int64) (string, error) {
	upd := &sqlparse.UpdateStmt{
		Table: j.ckpt,
		Set: []sqlparse.Assignment{{Column: "WATERMARK",
			Value: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: hi}}},
		Where: &sqlparse.BinaryExpr{Op: "=",
			L: &sqlparse.ColRef{Name: "STREAM_NAME"},
			R: &sqlparse.Literal{Kind: sqlparse.LitString, Str: j.req.Name}},
	}
	return sqlparse.Print(upd, sqlparse.DialectCDW)
}

// handleFrame ingests one delta frame on the session goroutine: replayed
// deltas (at or below the watermark) are dropped but acknowledged, fresh
// ones are converted into the batch's CSV spool, and when the buffered batch
// reaches the controller's cut-point it commits synchronously — the delayed
// ack is the stream's backpressure.
func (j *streamJob) handleFrame(m *wire.DeltaFrame) (*wire.DeltaAck, error) {
	frameStart := time.Now()
	// The frame's credit has an import chunk's lifetime: it is held while the
	// frame converts and back in the pool before any commit, so no credit
	// outlives its frame or waits on a CDW round trip.
	cr, err := j.node.credits.Acquire(j.node.ctx, int64(len(m.Payload)))
	if err != nil {
		return nil, err
	}
	err = j.spoolFrame(m)
	cr.Release()
	if err != nil {
		return nil, err
	}
	frameDur := time.Since(frameStart)
	j.frameAcc += frameDur
	j.node.nm.streamStageFrame.ObserveEx(frameDur.Seconds(), j.trace.Context().TraceID)

	// Cut the batch when it reaches the controller's row target, or when
	// wide records have filled the spool first.
	if j.rows >= j.ctrl.Hint().BatchRows || len(j.csv) >= streamSpoolCap {
		if err := j.commitBatch(); err != nil {
			return nil, err
		}
	}
	return &wire.DeltaAck{
		StreamID:     j.id,
		Seq:          m.FirstSeq,
		CommittedSeq: uint64(j.watermark),
		BatchHint:    uint32(j.ctrl.Hint().BatchRows),
	}, nil
}

// spoolFrame parses a frame's deltas, drops replays and converts the fresh
// ones into the batch spool.
func (j *streamJob) spoolFrame(m *wire.DeltaFrame) error {
	nm := j.node.nm
	rest := m.Payload
	parsed := 0
	for len(rest) > 0 {
		op, rec, r, err := stream.NextDelta(rest, j.req.Format)
		if err != nil {
			return fmt.Errorf("delta frame %d: %w", m.FirstSeq, err)
		}
		seq := int64(m.FirstSeq) + int64(parsed)
		parsed++
		rest = r
		j.deltas.Add(1)
		nm.streamDeltas.Inc()
		if seq <= j.watermark {
			// Replay of an already-committed delta (client resume overlap or a
			// re-sent frame): dropping it here is what makes checkpoint resume
			// exactly-once at the data level.
			j.replayed.Add(1)
			nm.streamReplays.Inc()
			continue
		}
		if j.batchLo == 0 {
			j.batchLo = seq
			j.batchStart = time.Now()
			j.oldestLiveNs.Store(j.batchStart.UnixNano())
		}
		j.batchHi = seq
		j.batchBytes += len(rec)
		if err := j.bufferDelta(op, rec, seq); err != nil {
			return err
		}
	}
	if parsed != int(m.Count) {
		return fmt.Errorf("delta frame %d declares %d deltas, carries %d", m.FirstSeq, m.Count, parsed)
	}
	return nil
}

// bufferDelta converts one fresh delta into the batch spool and extends the
// op-run structure. Conversion failures become data errors recorded at the
// batch commit, exactly like acquisition-phase rejects of a discrete import.
func (j *streamJob) bufferDelta(op stream.Op, rec []byte, seq int64) error {
	del := op == stream.OpDelete
	if j.csv == nil {
		j.csv = getBuf(64 << 10) // grows by append until the batch cuts
	}
	// Converting per record with firstRow=seq stages the delta under its
	// global sequence — the __seq the MERGE triple ranges over and the SEQNO
	// error tables report.
	spoolStart := time.Now()
	res, err := j.conv.ConvertInto(j.csv, rec, seq)
	j.stageAcc.Spool += time.Since(spoolStart)
	// The conversion may have grown (and therefore moved) the spool buffer,
	// even before failing; keep the Result's buffer or the field would hold
	// a stale header and the grown one would leak.
	j.csv = res.CSV
	if err != nil {
		return err
	}
	if len(res.Errors) > 0 {
		j.dataErrs = append(j.dataErrs, res.Errors...)
		j.node.nm.dataErrors.Add(int64(len(res.Errors)))
		return nil
	}
	j.rows++
	if n := len(j.runs); n > 0 && j.runs[n-1].del == del {
		j.runs[n-1].hi = seq
	} else {
		j.runs = append(j.runs, opRun{del: del, lo: seq, hi: seq})
	}
	return nil
}

// stageBatch rebuilds the staging table from the batch's one spool object.
// Reset-then-land on every commit is the batch's recovery point: a replayed
// batch after a crash and an engine-side COPY failure mid-batch both rebuild
// identical staging state from the durable object.
func (j *streamJob) stageBatch() error {
	copyStart := time.Now()
	if err := j.lane.reset(); err != nil {
		return err
	}
	j.stageAcc.Copy += time.Since(copyStart)
	if j.rows == 0 {
		return nil
	}
	name := fmt.Sprintf("b%d", j.batchNo)
	upStart := time.Now()
	_, err := j.lane.upload("stream", name, j.csv, int64(j.rows))
	j.stageAcc.Upload += time.Since(upStart)
	if err != nil {
		return err
	}
	copyStart = time.Now()
	staged, err := j.lane.land([]string{name})
	j.stageAcc.Copy += time.Since(copyStart)
	if err != nil {
		return err
	}
	if want := int64(j.rows); staged != want {
		return fmt.Errorf("stream staging %s holds %d rows, want %d", j.lane.stage.Name, staged, want)
	}
	return nil
}

// commitBatch drives one micro-batch through stage -> apply -> checkpoint.
// The order makes the whole batch replay-idempotent: staging tables are
// rebuilt from scratch, error-table rows above the watermark are wiped
// before re-recording, the MERGE triple is idempotent per staged range, and
// the watermark only advances after everything else is durable — so a crash
// anywhere in between replays the batch to the same end state.
func (j *streamJob) commitBatch() error {
	if j.batchLo == 0 {
		return nil
	}
	nm := j.node.nm
	lo, hi := j.batchLo, j.batchHi
	rows := j.rows
	commitStart := j.batchStart
	if err := j.stageBatch(); err != nil {
		return err
	}

	// Idempotent error recording: a crashed attempt may have recorded rows
	// for sequences the watermark never covered; wipe them before this
	// attempt re-records.
	applyStart := time.Now()
	if j.etName.Name != "" {
		del := fmt.Sprintf("DELETE FROM %s WHERE SEQNO_END > %d", j.etName.String(), j.watermark)
		if _, err := j.node.pool.ExecT(del, j.trace.ChildContext()); err != nil {
			return fmt.Errorf("clearing uncommitted error rows: %w", err)
		}
	}
	if j.etName.Name != "" && len(j.dataErrs) > 0 {
		if err := recordDataErrors(j.node, j.etName, j.trace.ChildContext(), j.dataErrs); err != nil {
			return err
		}
	}
	j.errsET.Add(int64(len(j.dataErrs)))
	for range j.dataErrs {
		nm.errorsET.Inc()
	}

	if err := j.applyRuns(); err != nil {
		return err
	}
	j.stageAcc.Apply += time.Since(applyStart)
	j.trace.Span("apply", "stream", applyStart, int64(rows), 0, nil)

	// Durable watermark advance: the last write of the commit. Everything
	// before this line is idempotent under replay; after it, the batch's
	// deltas are dropped as replays.
	ckptStart := time.Now()
	updSQL, err := j.ckptUpdate(hi)
	if err != nil {
		return err
	}
	if _, err := j.node.pool.ExecT(updSQL, j.trace.ChildContext()); err != nil {
		return fmt.Errorf("advancing stream watermark: %w", err)
	}
	j.watermark = hi
	j.stageAcc.Checkpoint += time.Since(ckptStart)
	j.trace.Span("checkpoint", "stream", ckptStart, 0, 0, nil)

	// The batch's objects are reclaimable now.
	if rows > 0 { // an all-reject batch uploaded nothing; skip its List
		j.lane.purge()
	}

	lat := time.Since(commitStart)
	st := j.stageAcc
	d := j.ctrl.ObserveStages(rows, j.batchBytes, lat, st)
	j.wmLive.Store(hi)
	j.hintLive.Store(int64(d.BatchRows))
	j.batches.Add(1)
	traceID := j.trace.Context().TraceID
	nm.streamBatches.Inc()
	nm.streamBatchRows.Observe(float64(rows))
	nm.streamCommitLat.ObserveEx(lat.Seconds(), traceID)
	nm.streamStageSpool.ObserveEx(st.Spool.Seconds(), traceID)
	nm.streamStageUpload.ObserveEx(st.Upload.Seconds(), traceID)
	nm.streamStageCopy.ObserveEx(st.Copy.Seconds(), traceID)
	nm.streamStageApply.ObserveEx(st.Apply.Seconds(), traceID)
	nm.streamStageCkpt.ObserveEx(st.Checkpoint.Seconds(), traceID)
	switch d.Action {
	case stream.ActionGrow:
		nm.streamGrows.Inc()
	case stream.ActionShrink:
		nm.streamShrinks.Inc()
	default:
		nm.streamHolds.Inc()
	}
	// The spool stage interleaves with frame ingest across the whole batch
	// window; anchoring both synthetic spans at the batch start renders them
	// as the concurrent activity they are.
	j.trace.Add(obs.Span{Stage: "frame_recv", Worker: "session", Start: commitStart, Dur: j.frameAcc, Rows: int64(rows), Bytes: int64(j.batchBytes)})
	j.trace.Add(obs.Span{Stage: "spool", Worker: "session", Start: commitStart, Dur: st.Spool, Rows: int64(rows)})
	j.trace.Span("stream_commit", "stream", commitStart, int64(rows), int64(j.batchBytes), nil)
	j.statMu.Lock()
	j.lastStat = streamCommitStat{
		rows:     rows,
		latency:  lat,
		action:   d.Action.String(),
		dominant: d.Dominant,
		stages:   j.ctrl.StageEWMA(),
	}
	j.statMu.Unlock()
	j.node.events.Add(obs.Event{
		Type: "batch_commit", Job: j.id, TraceID: j.traceID(), Msg: j.req.Name,
		Attrs: map[string]any{
			"lo": lo, "hi": hi, "rows": rows, "bytes": j.batchBytes,
			"latency_ms": lat.Milliseconds(), "dominant": d.Dominant,
		},
	})
	j.node.events.Add(obs.Event{
		Type: "ctrl_decision", Job: j.id, TraceID: j.traceID(), Msg: d.Action.String(),
		Attrs: map[string]any{
			"batch_rows": d.BatchRows, "dominant": d.Dominant,
		},
	})
	j.node.log.Debug("stream micro-batch committed", "stream", j.id, "lo", lo, "hi", hi,
		"rows", rows, "latency", lat, "action", d.Action.String(), "next_batch", d.BatchRows,
		"dominant", d.Dominant)

	j.batchLo, j.batchHi = 0, 0
	j.rows = 0
	j.csv = j.csv[:0]
	j.batchBytes = 0
	j.runs = j.runs[:0]
	j.dataErrs = j.dataErrs[:0]
	j.stageAcc = stream.Stages{}
	j.frameAcc = 0
	j.oldestLiveNs.Store(0)
	j.batchNo++
	return nil
}

// applyRuns applies the batch's op runs in sequence order under the adaptive
// error handler: a delete run ranges the DELETE over its stage range, an
// upsert run probes for duplicate key images (splitting until ranges are
// duplicate-free) then runs the UPDATE and guarded INSERT halves.
func (j *streamJob) applyRuns() error {
	if len(j.runs) == 0 {
		return nil
	}
	nm := j.node.nm
	var cur opRun
	apply := func(ctx context.Context, lo, hi int64) (int64, error) {
		if cur.del {
			sql, err := j.sd.Delete.SQL(lo, hi)
			if err != nil {
				return 0, err
			}
			n, err := j.node.pool.ExecT(sql, j.trace.ChildContext())
			if err != nil {
				return 0, err
			}
			j.deleted.Add(n)
			nm.rowsDeleted.Add(n)
			return n, nil
		}
		if lo < hi && j.intraDup != nil {
			sql, err := j.intraDup.SQL(lo, hi)
			if err != nil {
				return 0, err
			}
			_, dups, err := j.node.pool.QueryAllT(sql, j.trace.ChildContext())
			if err != nil {
				return 0, err
			}
			if len(dups) == 1 && dups[0][0].I > 0 {
				return 0, errStreamDupRange
			}
		}
		var a1 int64
		if j.sd.Update != nil {
			sql, err := j.sd.Update.SQL(lo, hi)
			if err != nil {
				return 0, err
			}
			if a1, err = j.node.pool.ExecT(sql, j.trace.ChildContext()); err != nil {
				return 0, err
			}
		}
		sql, err := j.sd.Insert.SQL(lo, hi)
		if err != nil {
			return 0, err
		}
		a2, err := j.node.pool.ExecT(sql, j.trace.ChildContext())
		if err != nil {
			return 0, err
		}
		j.updated.Add(a1)
		j.inserted.Add(a2)
		nm.rowsUpdated.Add(a1)
		nm.rowsInserted.Add(a2)
		return a1 + a2, nil
	}

	classify := func(err error) errhandle.Classified {
		if errors.Is(err, errStreamDupRange) {
			// Not a data error: just force the split toward duplicate-free
			// ranges. Never reaches a singleton, so never recorded.
			return errhandle.Classified{Msg: err.Error()}
		}
		return classifyCDWError(err)
	}

	record := func(lo, hi int64, c errhandle.Classified) error {
		msg := c.Msg
		if c.Code == errhandle.CodeMaxErrors {
			msg = fmt.Sprintf("Max number of errors reached during stream apply on %s, row numbers: (%d, %d)", j.targets, lo, hi)
		} else {
			msg = fmt.Sprintf("%s during stream apply on %s, row number: %d", c.Msg, j.targets, lo)
		}
		j.errsET.Add(1)
		nm.errorsET.Inc()
		if j.etName.Name == "" {
			return nil // stream declared no error table; drop like the legacy tools
		}
		return recordError(j.node, j.etName, j.trace.ChildContext(), lo, hi, c.Code, c.Field, msg)
	}

	cfg := j.node.errhandleConfig(int(j.req.MaxErrors), 0, j.trace, "stream", nil)
	h := errhandle.New(cfg, apply, classify, record)
	for _, run := range j.runs {
		cur = run
		if err := h.Run(j.node.ctx, run.lo, run.hi); err != nil {
			return err
		}
	}
	st := h.Stats()
	nm.adaptiveSplits.Add(st.Splits)
	nm.blockErrors.Add(st.BlockErrors)
	return nil
}

// finishStream commits any buffered tail and closes the stream. The
// checkpoint row and error table survive — they are the stream's durable
// identity for the next incarnation.
func (j *streamJob) finishStream() (*wire.StreamDone, error) {
	if err := j.commitBatch(); err != nil {
		return nil, err
	}
	done := &wire.StreamDone{
		StreamID:  j.id,
		Watermark: uint64(j.watermark),
		Inserted:  uint64(j.inserted.Load()),
		Updated:   uint64(j.updated.Load()),
		Deleted:   uint64(j.deleted.Load()),
		ErrorsET:  uint64(j.errsET.Load()),
		Replayed:  uint64(j.replayed.Load()),
	}
	j.node.events.Add(obs.Event{
		Type: "stream_finish", Job: j.id, TraceID: j.traceID(), Msg: j.req.Name,
		Attrs: map[string]any{
			"watermark": j.watermark,
			"batches":   j.batches.Load(),
			"replayed":  j.replayed.Load(),
		},
	})
	j.finish()
	return done, nil
}

// abort tears down a stream whose client went away mid-batch: buffered
// deltas are discarded, and the client replays them on resume.
func (j *streamJob) abort() {
	j.oldestLiveNs.Store(0)
	j.node.nm.streamsAborted.Inc()
	j.node.events.Add(obs.Event{
		Type: "stream_abort", Job: j.id, TraceID: j.traceID(), Msg: j.req.Name,
		Attrs: map[string]any{"watermark": j.watermark},
	})
	j.node.log.Warn("stream aborted by client disconnect", "stream", j.id,
		"name", j.req.Name, "watermark", j.watermark)
	j.finish()
}

// finish removes the stream's transient state: staging tables, uploaded
// batch objects, registry entry. Checkpoint and error tables stay.
func (j *streamJob) finish() {
	j.finishSeq.Do(func() {
		j.lane.close()
		putBuf(j.csv)
		j.csv = nil
		j.node.tracer.Finish(j.id)
		j.node.mu.Lock()
		delete(j.node.streams, j.id)
		j.node.mu.Unlock()
	})
}
