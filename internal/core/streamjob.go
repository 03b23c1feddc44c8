package core

import (
	"cmp"
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
	"etlvirt/internal/errhandle"
	"etlvirt/internal/obs"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// errPredictedReject fails a range whose read predicts that some image
// violates a NOT NULL constraint, so the adaptive handler takes the range
// apart; the predicted images are its located split. A single image is never
// predicted: it is applied, and the CDW's own error is recorded.
var errPredictedReject = errors.New("images in range violate NOT NULL constraints")

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

	ckpt    sqlparse.TableName // durable watermark table (shared, one row per stream)
	etName  sqlparse.TableName
	tr      *sqlxlate.Translator
	conv    *convert.Converter
	ne      *sqlxlate.NetEffect
	ctrl    *stream.Controller
	targets string
	started time.Time

	// watermark is the highest delta sequence durably applied to the CDW,
	// mirroring the checkpoint row. Deltas at or below it are replays.
	watermark int64

	// Current micro-batch accumulation. Only the session goroutine touches
	// these; a stream has exactly one connection. Upsert and delete images
	// share one spool and one staging table, whose __op column tells them
	// apart. The spool is a pooled buffer owned by the job from its getBuf in
	// bufferDelta until finish's putBuf.
	lane             *stagingLane
	csv              []byte //etlvirt:owns
	rows             int    // rows staged this batch
	dels             int    // delete images staged this batch
	stmts            int64  // CDW statements the open commit issued outside the lane
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
	// ctx is the node lifetime carrying trace: every CDW round trip of the
	// stream, its open included, runs under it.
	ctx context.Context
}

// streamCommitStat is the last committed micro-batch's controller view,
// snapshotted for the /streams debug endpoint.
type streamCommitStat struct {
	rows     int
	stmts    int64 // CDW statements the commit issued
	located  int64 // images the commit's error handler rejected
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
func (n *Node) newStreamJob(m *wire.BeginStream, tc obs.TraceContext) (j *streamJob, err error) {
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
	j = &streamJob{
		id:      id,
		node:    n,
		req:     m,
		conv:    conv,
		ckpt:    sqlparse.TableName{Schema: stagingSchema, Name: "stream_checkpoints"},
		etName:  sqlparse.ParseTableName(m.ErrTableET),
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
	// The trace opens before the first round trip, so the open's statements
	// join it; a failed open settles it.
	j.trace = n.tracer.StartCtx(id, "stream "+m.Name, tc)
	j.ctx = obs.WithJob(n.ctx, j.trace)
	defer func() {
		if err != nil {
			n.tracer.Finish(id)
		}
	}()
	meta, err := n.pool.Describe(dml.Target.String())
	if err != nil {
		return nil, fmt.Errorf("describing stream target: %w", err)
	}
	if len(meta.PrimaryKey) == 0 {
		return nil, fmt.Errorf("stream target %s has no primary key; CDC deltas need one to identify rows", j.targets)
	}
	// Streams are keyed by the primary key alone; UNIQUE constraints are not
	// emulated on this path (DESIGN.md).
	cols := make([]sqlxlate.TargetColumn, len(meta.Columns))
	for i, c := range meta.Columns {
		cols[i] = sqlxlate.TargetColumn{Name: c.Name, Type: typeName(c.Type),
			NotNull: meta.NotNull[i], Default: meta.Defaults[i] != ""}
	}
	if j.ne, err = j.tr.TranslateNetEffect(m.SQL, cols, meta.PrimaryKey); err != nil {
		return nil, err
	}
	stageDDL, err := sqlxlate.StreamStagingDDL(stage, m.Layout)
	if err != nil {
		return nil, err
	}

	// Durable checkpoint: create the table if needed, then read or seed this
	// stream's watermark row.
	ckptDDL, err := sqlxlate.CheckpointTableDDL(j.ckpt)
	if err != nil {
		return nil, err
	}
	if _, err := n.pool.Write(j.ctx, cdwnet.Stmt{SQL: ckptDDL}); err != nil {
		return nil, fmt.Errorf("preparing checkpoint table: %w", err)
	}
	selSQL, err := j.ckptSelect()
	if err != nil {
		return nil, err
	}
	_, rows, err := n.pool.Read(j.ctx, cdwnet.Stmt{SQL: selSQL})
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
		if _, err := n.pool.Write(j.ctx, cdwnet.Stmt{SQL: insSQL}); err != nil {
			return nil, fmt.Errorf("seeding stream checkpoint: %w", err)
		}
		if j.etName.Name != "" {
			etDDL, err := sqlxlate.ErrorTableDDL(j.etName)
			if err != nil {
				return nil, err
			}
			for _, s := range []string{dropIfExists(j.etName), etDDL} {
				if _, err := n.pool.Write(j.ctx, cdwnet.Stmt{SQL: s}); err != nil {
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
	j.lane = newStagingLane(j.ctx, n, stage, stageDDL, fmt.Sprintf("%sstream%d/", uploadPrefix, id), "stream_copy", "stream")
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

// bufferDelta converts one fresh delta into the batch spool, tagged with its
// image class. Conversion failures become data errors recorded at the batch
// commit, exactly like acquisition-phase rejects of a discrete import.
func (j *streamJob) bufferDelta(op stream.Op, rec []byte, seq int64) error {
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
	class := sqlxlate.OpUpsert[0]
	if op == stream.OpDelete {
		class = sqlxlate.OpDelete[0]
		j.dels++
	}
	// The converted row ends in its newline; the class is its last field.
	j.csv = append(j.csv[:len(j.csv)-1], ',', class, '\n')
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
// before re-recording, the net-effect statements are idempotent per staged
// range, and the watermark only advances after everything else is durable —
// so a crash anywhere in between replays the batch to the same end state.
func (j *streamJob) commitBatch() error {
	if j.batchLo == 0 {
		return nil
	}
	nm := j.node.nm
	lo, hi := j.batchLo, j.batchHi
	rows := j.rows
	commitStart := j.batchStart
	laneStmts := j.lane.stmts.Load()
	if err := j.stageBatch(); err != nil {
		return err
	}

	// Idempotent error recording: a crashed attempt may have recorded rows
	// for sequences the watermark never covered; wipe them before this
	// attempt re-records.
	applyStart := time.Now()
	if j.etName.Name != "" {
		del := fmt.Sprintf("DELETE FROM %s WHERE SEQNO_END > %d", j.etName.String(), j.watermark)
		if _, err := j.exec(del); err != nil {
			return fmt.Errorf("clearing uncommitted error rows: %w", err)
		}
	}
	if j.etName.Name != "" && len(j.dataErrs) > 0 {
		if err := recordDataErrors(j.ctx, j.node, j.etName, j.dataErrs); err != nil {
			return err
		}
		j.stmts += int64((len(j.dataErrs) + errInsertBatch - 1) / errInsertBatch)
	}
	j.errsET.Add(int64(len(j.dataErrs)))
	for range j.dataErrs {
		nm.errorsET.Inc()
	}

	located, err := j.apply()
	if err != nil {
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
	if _, err := j.exec(updSQL); err != nil {
		return fmt.Errorf("advancing stream watermark: %w", err)
	}
	stmts := j.stmts + j.lane.stmts.Load() - laneStmts
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
		stmts:    stmts,
		located:  located,
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
			"cdw_stmts": stmts, "located": located,
			"action": d.Action.String(), "next_batch_rows": d.BatchRows,
		},
	})
	j.node.log.Debug("stream micro-batch committed", "stream", j.id, "lo", lo, "hi", hi,
		"rows", rows, "latency", lat, "action", d.Action.String(), "next_batch", d.BatchRows,
		"dominant", d.Dominant)

	j.batchLo, j.batchHi = 0, 0
	j.rows = 0
	j.dels = 0
	j.stmts = 0
	j.csv = j.csv[:0]
	j.batchBytes = 0
	j.dataErrs = j.dataErrs[:0]
	j.stageAcc = stream.Stages{}
	j.frameAcc = 0
	j.oldestLiveNs.Store(0)
	j.batchNo++
	return nil
}

// exec runs one statement of the open commit.
func (j *streamJob) exec(sql string) (int64, error) {
	j.stmts++
	return j.node.pool.Write(j.ctx, cdwnet.Stmt{SQL: sql})
}

// execRange runs one net-effect statement over staged images lo..hi.
func (j *streamJob) execRange(rs *sqlxlate.RangeStmt, lo, hi int64) (int64, error) {
	tmpl, err := rs.Template()
	if err != nil {
		return 0, err
	}
	j.stmts++
	return j.node.pool.Write(j.ctx, cdwnet.Range(tmpl, lo, hi))
}

// apply commits the staged batch's net effect under the adaptive error
// handler and returns how many images it rejected. A clean batch costs the
// read and at most three applies. A range whose read fails, or predicts a
// NOT NULL violation, is taken apart — at the predicted images when there
// are any, by halving otherwise — and every part that holds one image
// applies it alone, which is exactly a tuple-at-a-time apply of it. Parts
// apply in sequence order, so each part's read sees the target as a
// tuple-at-a-time apply would leave it before the part's first image.
func (j *streamJob) apply() (int64, error) {
	if j.rows == 0 {
		return 0, nil
	}
	nm := j.node.nm
	var predicted []int64
	var predLo, predHi int64
	apply := func(_ context.Context, lo, hi int64) (int64, error) {
		if lo == hi {
			return j.applyOne(lo)
		}
		tmpl, err := j.ne.Read.Template()
		if err != nil {
			return 0, err
		}
		j.stmts++
		_, rows, err := j.node.pool.Read(j.ctx, cdwnet.Range(tmpl, lo, hi))
		if err != nil {
			return 0, err
		}
		t := tallyImages(j.ne, rows)
		if len(t.rejects) > 0 {
			predicted, predLo, predHi = t.rejects, lo, hi
			return 0, errPredictedReject
		}
		return j.applyRange(lo, hi, t)
	}
	classify := func(err error) errhandle.Classified {
		if errors.Is(err, errPredictedReject) {
			// Not an engine error: just take the range apart. Never reaches
			// a single image, so never recorded as such.
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
		j.stmts++
		return recordError(j.ctx, j.node, j.etName, lo, hi, c.Code, c.Field, msg)
	}

	cfg := j.node.errhandleConfig(int(j.req.MaxErrors), 0, j.trace, "stream", nil)
	cfg.Locate = func(_ context.Context, lo, hi int64) ([]int64, error) {
		if lo == predLo && hi == predHi {
			return predicted, nil
		}
		return nil, nil
	}
	h := errhandle.New(cfg, apply, classify, record)
	if err := h.Run(j.node.ctx, j.batchLo, j.batchHi); err != nil {
		return 0, err
	}
	st := h.Stats()
	nm.adaptiveSplits.Add(st.Splits)
	nm.blockErrors.Add(st.BlockErrors)
	return st.IndividualErrors + st.BlockedRows, nil
}

// applyRange applies the net effect of images lo..hi, none of which its read
// t predicts to fail, and counts them as t does. A statement runs only when
// some image needs it.
func (j *streamJob) applyRange(lo, hi int64, t imageTally) (int64, error) {
	ne := j.ne
	for _, st := range []struct {
		rs   *sqlxlate.RangeStmt
		need bool
	}{
		{ne.Delete, t.dels > 0},
		{ne.Update, t.upd > 0},
		{ne.Insert, t.ins > 0},
	} {
		if !st.need {
			continue
		}
		if _, err := j.execRange(st.rs, lo, hi); err != nil {
			return 0, err
		}
	}
	j.count(t.ins, t.upd, t.del)
	return t.ins + t.upd + t.del, nil
}

// applyOne applies the one image at seq: the net effect of a single image is
// its tuple-at-a-time apply, so the statements' activities are its counts
// and a failing statement's error is the one to record.
func (j *streamJob) applyOne(seq int64) (int64, error) {
	var del, upd int64
	var err error
	if j.dels > 0 {
		if del, err = j.execRange(j.ne.Delete, seq, seq); err != nil {
			return 0, err
		}
	}
	if j.ne.Update != nil {
		if upd, err = j.execRange(j.ne.Update, seq, seq); err != nil {
			return 0, err
		}
	}
	ins, err := j.execRange(j.ne.Insert, seq, seq)
	if err != nil {
		return 0, err
	}
	j.count(ins, upd, del)
	return ins + upd + del, nil
}

func (j *streamJob) count(ins, upd, del int64) {
	nm := j.node.nm
	j.inserted.Add(ins)
	j.updated.Add(upd)
	j.deleted.Add(del)
	nm.rowsInserted.Add(ins)
	nm.rowsUpdated.Add(upd)
	nm.rowsDeleted.Add(del)
}

// imageTally is what a net-effect read says about a range of images: the
// I/U/D counts a tuple-at-a-time apply would report, the delete images, and
// the images it would reject for a NOT NULL violation.
type imageTally struct {
	ins, upd, del, dels int64
	rejects             []int64
}

// tallyImages replays a net-effect read tuple at a time, per key: an upsert
// inserts when its key is absent and updates when it is present, a delete
// counts when its key is present, and an upsert that would write a NULL
// into a NOT NULL column is rejected and changes nothing. A key with a NULL
// never matches a target row, so it is never present.
func tallyImages(ne *sqlxlate.NetEffect, rows [][]cdw.Datum) imageTally {
	slices.SortFunc(rows, func(a, b []cdw.Datum) int { return cmp.Compare(a[0].I, b[0].I) })
	var t imageTally
	present := make(map[string]bool, len(rows))
	var kb strings.Builder
	for _, r := range rows {
		kb.Reset()
		nullKey := false
		for _, d := range r[3 : 3+ne.Keys] {
			nullKey = nullKey || d.IsNull()
			kb.WriteString(d.GroupKey())
			kb.WriteByte(0)
		}
		k := kb.String()
		p, seen := present[k]
		if !seen {
			p = r[2].Bool
		}
		switch {
		case r[1].S == sqlxlate.OpDelete:
			t.dels++
			if p {
				t.del++
			}
			p = false
		case rejected(ne, r[3+ne.Keys:], p):
			t.rejects = append(t.rejects, r[0].I)
		case !p:
			t.ins++
			p = true
		case ne.Update != nil:
			t.upd++
		}
		if !nullKey {
			present[k] = p
		}
	}
	return t
}

// rejected reports whether an upsert image whose fed columns have the read's
// null checks violates a NOT NULL constraint: an update writes the fed
// non-key columns, an insert every column.
func rejected(ne *sqlxlate.NetEffect, nulls []cdw.Datum, present bool) bool {
	if !present && ne.InsertNull {
		return true
	}
	for i, c := range ne.Checks {
		if c.NotNull && nulls[i].Bool && (!present || !c.Key) {
			return true
		}
	}
	return false
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

// typeName spells a CDW column type as the CAST target that resolves back
// to it.
func typeName(t cdw.ColType) sqlparse.TypeName {
	switch t.Kind {
	case cdw.KString, cdw.KBytes:
		tn := sqlparse.TypeName{Name: t.Kind.String()}
		if t.National {
			tn.Name = "NVARCHAR"
		}
		if t.Length > 0 {
			tn.Args = []int{t.Length}
		}
		return tn
	case cdw.KDecimal:
		return sqlparse.TypeName{Name: "DECIMAL", Args: []int{t.Precision, t.Scale}}
	default:
		return sqlparse.TypeName{Name: t.Kind.String()}
	}
}
