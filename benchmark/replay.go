package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/convert"
	"etlvirt/internal/credit"
	"etlvirt/internal/errhandle"
	"etlvirt/internal/fwriter"
	"etlvirt/internal/ltype"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/stream"
	"etlvirt/internal/tdf"
	"etlvirt/internal/wire"
)

// replayInput is the generated input the layer replay pushes through each
// layer on its own: one vartext import's rows with its layout, target and
// apply statement.
type replayInput struct {
	Table, DDL, DML string
	Layout          *ltype.Layout
	Data            []byte
	MaxErrors       int
}

// Fixed work for the replay's micro-measurements: enough repetitions that a
// mean is steady, little enough that the whole replay stays around a second.
const (
	replayChunkRecords = 500 // the legacy client's default chunk size
	replayTranslateN   = 50
	replayRTTN         = 200
	replayCreditN      = 20000
	replayControllerN  = 20000
	// The stream DML replays replayStreamRows deltas in micro-batches of
	// replayStreamBatch against a target of at most replayStreamTarget rows:
	// cdc_stream's own proportions, whatever input is being replayed.
	replayStreamBatch  = 16
	replayStreamRows   = 64
	replayStreamTarget = 1000
	replayPrefix       = "replay/1/"
)

var (
	replayStage       = sqlparse.TableName{Schema: "etl_stage", Name: "replay_1"}
	replayStreamStage = sqlparse.TableName{Schema: "etl_stage", Name: "replay_1_ups"}
	replayDelStage    = sqlparse.TableName{Schema: "etl_stage", Name: "replay_1_del"}
	replayErrTable    = sqlparse.TableName{Schema: "BENCH", Name: "REPLAY_ERR"}
)

// replayChunk is one client data chunk of the input.
type replayChunk struct {
	payload  []byte
	firstRow int64
	count    int
}

// replayer pushes one input single-threaded through every layer's public API,
// recording one span per call. Nested calls (a CDW round trip inside the
// error handler, engine time inside the round trip) become child spans, so a
// layer's self time is its duration minus its children. Each step leaves
// what the next one consumes in the struct.
type replayer struct {
	in   *replayInput
	rec  *recorder
	root uint64
	m    map[string]float64 // metrics, by their reported names

	eng  *cdw.Engine
	pool *cdwnet.Pool

	lines  []string
	chunks []replayChunk
	csvs   [][]byte // converted chunks
	csvRow []int    // rows in each converted chunk
	files  []fwriter.FinishedFile
	memfs  *fwriter.MemFS
	staged int64 // rows COPY landed in the staging table
	tr     *sqlxlate.Translator
	dml    *sqlxlate.DML
	meta   *cdwnet.TableMeta
	// chain is the summed duration of the acquisition-to-apply chain: the
	// single-threaded baseline of one import.
	chain time.Duration

	// parent is the span new child spans hang off; the replay is
	// single-threaded, but the engine-time observer fires on the CDW server's
	// goroutine, hence the lock.
	mu         sync.Mutex
	parent     uint64
	engineBusy time.Duration
}

// replayLayers runs the replay against a private store, engine and CDW
// server, and returns its per-layer metrics. Spans go to rec under one
// operation.
func replayLayers(ctx context.Context, in *replayInput, rec *recorder) (map[string]float64, error) {
	r := &replayer{in: in, rec: rec, m: map[string]float64{}}
	store := cloudstore.NewMemStore()
	r.eng = cdw.NewEngine(store, cdw.Options{})
	srv := cdwnet.NewServer(r.eng)
	srv.SetObserver(r.engineSpan)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replay: starting CDW server: %w", err)
	}
	defer srv.Close()
	r.pool = cdwnet.NewPool(addr, 2)
	r.pool.SetContext(ctx)
	defer r.pool.Close()

	r.lines = ltype.SplitVartextLines(in.Data)
	if len(r.lines) == 0 {
		return nil, errors.New("replay: empty input")
	}
	r.root = rec.newID()
	r.parent = r.root
	start := time.Now()
	for _, step := range []func() error{
		r.wire, r.parse, r.convert, r.write,
		func() error { return r.upload(store) },
		r.copy, r.translate,
		func() error { return r.apply(ctx) },
		r.roundTrip, r.export, r.streamFraming, r.streamDML, r.controller,
		func() error { return r.credit(ctx) },
	} {
		if err := step(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	rec.add(r.root, 0, r.root, "replay", start, time.Now())
	r.m["gen.replay_chain_rows_per_s"] = ratio(float64(len(r.lines)), r.chain.Seconds())
	r.m["replay.chain_ms"] = ms(r.chain)
	return r.m, nil
}

// span times fn as a child of the current parent and makes it the parent of
// whatever fn records.
func (r *replayer) span(name string, fn func() error) (time.Duration, error) {
	id := r.rec.newID()
	r.mu.Lock()
	outer := r.parent
	r.parent = id
	r.mu.Unlock()
	start := time.Now()
	err := fn()
	end := time.Now()
	r.mu.Lock()
	r.parent = outer
	r.mu.Unlock()
	r.rec.add(id, outer, r.root, name, start, end)
	return end.Sub(start), err
}

// engineSpan is the replay CDW server's observer: engine time of the request
// being served, nested under the round trip that carried it.
func (r *replayer) engineSpan(op string, d time.Duration, _ int) {
	end := time.Now()
	r.mu.Lock()
	parent := r.parent
	r.engineBusy += d
	r.mu.Unlock()
	r.rec.add(0, parent, r.root, "cdw."+op, end.Add(-d), end)
}

// takeEngineBusy returns and resets the engine time observed so far.
func (r *replayer) takeEngineBusy() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.engineBusy
	r.engineBusy = 0
	return d
}

// exec is one pooled CDW round trip as a span.
func (r *replayer) exec(sql string) (n int64, d time.Duration, err error) {
	d, err = r.span("cdwnet.roundtrip", func() error {
		var e error
		n, e = r.pool.Exec(sql)
		return e
	})
	return n, d, err
}

// direct runs statements straight on the engine, outside any span: DDL and
// seeding the measured steps depend on.
func (r *replayer) direct(stmts ...string) error {
	for _, sql := range stmts {
		if _, err := r.eng.ExecSQL(sql); err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
	}
	return nil
}

// wire: the client's chunk frames, encoded and decoded.
func (r *replayer) wire() error {
	rows := len(r.lines)
	for at := 0; at < rows; at += replayChunkRecords {
		end := at + replayChunkRecords
		if end > rows {
			end = rows
		}
		var p []byte
		for _, l := range r.lines[at:end] {
			p = append(p, l...)
			p = append(p, '\n')
		}
		r.chunks = append(r.chunks, replayChunk{payload: p, firstRow: int64(at + 1), count: end - at})
	}
	var encDur, decDur time.Duration
	var wireBytes int
	for i, ck := range r.chunks {
		var frame []byte
		d, err := r.span("wire.encode", func() error {
			f, err := wire.Encode(1, &wire.DataChunk{JobID: 1, Seq: uint64(i), FirstRow: uint64(ck.firstRow),
				Count: uint32(ck.count), Payload: ck.payload})
			if err != nil {
				return err
			}
			frame, err = wire.AppendFrame(nil, f)
			return err
		})
		if err != nil {
			return fmt.Errorf("encoding chunk frame: %w", err)
		}
		encDur += d
		wireBytes += len(frame)
		d, err = r.span("wire.decode", func() error {
			f, err := wire.ReadFrame(bytes.NewReader(frame))
			if err != nil {
				return err
			}
			_, err = wire.Decode(f)
			return err
		})
		if err != nil {
			return fmt.Errorf("decoding chunk frame: %w", err)
		}
		decDur += d
	}
	r.chain += encDur + decDur
	r.m["wire.encode_ns_per_frame"] = ratio(float64(encDur), float64(len(r.chunks)))
	r.m["wire.decode_ns_per_frame"] = ratio(float64(decDur), float64(len(r.chunks)))
	r.m["wire.bytes_per_row"] = ratio(float64(wireBytes), float64(rows))
	return nil
}

// parse: ltype's text parse of every record, on its own (convert repeats it
// inside its span, which cannot be split from outside).
func (r *replayer) parse() error {
	rec := make(ltype.Record, len(r.in.Layout.Fields))
	var scratch ltype.VartextScratch
	d, err := r.span("ltype.parse", func() error {
		for _, l := range r.lines {
			if err := ltype.ParseVartextRecordInto(rec, l, '|', r.in.Layout, &scratch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("parsing records: %w", err)
	}
	r.m["ltype.parse_ns_per_row"] = ratio(float64(d), float64(len(r.lines)))
	return nil
}

// convert: chunk payloads to staging CSV.
func (r *replayer) convert() error {
	conv, err := convert.NewConverter(r.in.Layout, wire.FormatVartext, '|', convert.Options{})
	if err != nil {
		return err
	}
	var dur time.Duration
	var rows, dataErrs int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ck := range r.chunks {
		var res *convert.Result
		d, err := r.span("convert", func() error {
			var e error
			res, e = conv.ConvertInto(make([]byte, 0, len(ck.payload)+len(ck.payload)/4), ck.payload, ck.firstRow)
			return e
		})
		if err != nil {
			return fmt.Errorf("converting chunk: %w", err)
		}
		dur += d
		rows += res.Rows
		dataErrs += len(res.Errors)
		r.csvs = append(r.csvs, res.CSV)
		r.csvRow = append(r.csvRow, res.Rows)
	}
	runtime.ReadMemStats(&after)
	r.chain += dur
	r.m["convert.ns_per_row"] = ratio(float64(dur), float64(len(r.lines)))
	r.m["convert.allocs_per_chunk"] = ratio(float64(after.Mallocs-before.Mallocs), float64(len(r.chunks)))
	r.m["convert.rows"] = float64(rows)
	r.m["convert.data_errors"] = float64(dataErrs)
	return nil
}

// write: CSV into rotated, compressed staging files, at the node's settings.
func (r *replayer) write() error {
	r.memfs = fwriter.NewMemFS()
	fw := fwriter.NewWriter(r.memfs, fwriter.Config{SizeThreshold: nodeFileSizeThreshold, Gzip: nodeGzip, NamePrefix: "replay"})
	dur, err := r.span("fwriter.write", func() error {
		for i, csv := range r.csvs {
			if r.csvRow[i] == 0 {
				continue
			}
			if err := fw.Write(csv, r.csvRow[i]); err != nil {
				return err
			}
		}
		var e error
		r.files, e = fw.Flush()
		return e
	})
	if err != nil {
		return fmt.Errorf("writing staging files: %w", err)
	}
	r.chain += dur
	var raw, out int
	for _, f := range r.files {
		raw += f.Raw
		out += f.Bytes
	}
	r.m["fwriter.ns_per_mb"] = ratio(float64(dur), float64(raw)/1e6)
	r.m["fwriter.files_per_job"] = float64(len(r.files))
	r.m["fwriter.out_bytes_per_in_byte"] = ratio(float64(out), float64(raw))
	return nil
}

// upload: the bulk loader's puts. The cloudstore metrics themselves come from
// the live wrapper; the span keeps the chain complete.
func (r *replayer) upload(store cloudstore.Store) error {
	loader := cloudstore.NewBulkLoader(store, cloudstore.LoaderConfig{})
	dur, err := r.span("cloudstore.upload", func() error {
		for _, f := range r.files {
			data, ok := r.memfs.Bytes(f.Name)
			if !ok {
				return fmt.Errorf("staging file %s vanished", f.Name)
			}
			if _, err := loader.UploadBytes(data, replayPrefix+f.Name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("uploading staging files: %w", err)
	}
	r.chain += dur
	return nil
}

// copy: the manifest COPY into the staging table.
func (r *replayer) copy() error {
	stageDDL, err := sqlxlate.StagingDDL(replayStage, r.in.Layout)
	if err != nil {
		return err
	}
	errDDL, err := sqlxlate.ErrorTableDDL(replayErrTable)
	if err != nil {
		return err
	}
	if err := r.direct(stageDDL, errDDL, r.in.DDL); err != nil {
		return err
	}
	names := make([]string, len(r.files))
	for i, f := range r.files {
		names[i] = f.Name
	}
	copySQL, err := sqlparse.Print(&sqlparse.CopyStmt{Table: replayStage, From: "store://" + replayPrefix, Files: names,
		Options: map[string]string{"format": "csv", "order": sqlxlate.SeqColumn}}, sqlparse.DialectCDW)
	if err != nil {
		return err
	}
	dur, err := r.span("cdw.copy", func() error {
		res, err := r.eng.ExecSQL(copySQL)
		if err != nil {
			return err
		}
		r.staged = res.Activity
		return nil
	})
	if err != nil {
		return fmt.Errorf("COPY into staging: %w", err)
	}
	if want := int64(r.m["convert.rows"]); r.staged != want {
		return fmt.Errorf("COPY staged %d rows, converter produced %d", r.staged, want)
	}
	r.chain += dur
	r.m["cdw.copy_ns_per_row"] = ratio(float64(dur), float64(r.staged))
	return nil
}

// translate: cross-compiling the apply DML, plain and as a stream triple.
func (r *replayer) translate() error {
	r.tr = &sqlxlate.Translator{Stage: replayStage, StageAlias: "s", Layout: r.in.Layout}
	dur, err := r.span("sqlxlate.translate", func() error {
		for i := 0; i < replayTranslateN; i++ {
			var e error
			if r.dml, e = r.tr.TranslateDML(r.in.DML); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("translating apply DML: %w", err)
	}
	r.m["sqlxlate.translate_us_per_stmt"] = float64(dur.Microseconds()) / replayTranslateN
	if r.meta, err = r.pool.Describe(r.dml.Target.String()); err != nil {
		return fmt.Errorf("describing target: %w", err)
	}
	if len(r.meta.PrimaryKey) == 0 {
		return fmt.Errorf("replay target %s has no primary key", r.in.Table)
	}
	dur, err = r.span("sqlxlate.stream_translate", func() error {
		for i := 0; i < replayTranslateN; i++ {
			if _, err := r.streamStatements(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("translating stream DML: %w", err)
	}
	r.m["sqlxlate.stream_translate_us"] = float64(dur.Microseconds()) / replayTranslateN
	return nil
}

// streamTable names the stream DML's own, stream-sized target.
func (r *replayer) streamTable() string { return r.in.Table + "_S" }

// streamStatements derives the stream triple. A stream stages one micro-batch
// at a time, so its DML ranges over a small stage and a stream-sized target
// of their own.
func (r *replayer) streamStatements() (*sqlxlate.StreamDML, error) {
	tr := &sqlxlate.Translator{Stage: replayStreamStage, StageAlias: "s", Layout: r.in.Layout}
	cols := make([]string, len(r.meta.Columns))
	for i, c := range r.meta.Columns {
		cols[i] = c.Name
	}
	return tr.TranslateStreamDML(strings.ReplaceAll(r.in.DML, r.in.Table, r.streamTable()),
		replayDelStage, cols, r.meta.PrimaryKey)
}

// apply: the application phase — errhandle driving range DML and
// uniqueness-emulation queries over cdwnet round trips, as the import job
// does.
func (r *replayer) apply(ctx context.Context) error {
	var intraQ, targetQ *sqlxlate.RangeStmt
	if exprs, cols := keyExprs(r.dml, r.meta); len(exprs) > 0 {
		var err error
		if intraQ, targetQ, err = r.tr.DupCheckQueries(r.dml, cols, exprs); err != nil {
			return fmt.Errorf("building duplicate-key queries: %w", err)
		}
	}
	var okStmts, okRows, recorded int64
	var okDur time.Duration
	apply := func(_ context.Context, lo, hi int64) (int64, error) {
		for _, q := range []*sqlxlate.RangeStmt{intraQ, targetQ} {
			if q == nil {
				continue
			}
			sql, err := q.SQL(lo, hi)
			if err != nil {
				return 0, err
			}
			var dups [][]cdw.Datum
			if _, err := r.span("cdwnet.roundtrip", func() error {
				var e error
				_, dups, e = r.pool.QueryAll(sql)
				return e
			}); err != nil {
				return 0, err
			}
			if len(dups) == 1 && dups[0][0].I > 0 {
				return 0, &cdw.Error{Code: cdw.CodeUniqueness, Msg: "duplicate unique key value"}
			}
		}
		sql, err := r.dml.Apply.SQL(lo, hi)
		if err != nil {
			return 0, err
		}
		n, d, err := r.exec(sql)
		if err == nil {
			okStmts++
			okRows += n
			okDur += d
		}
		return n, err
	}
	classify := func(err error) errhandle.Classified {
		var ce *cdw.Error
		if !errors.As(err, &ce) {
			return errhandle.Classified{Fatal: true, Msg: err.Error()}
		}
		return errhandle.Classified{Code: ce.Code, Field: ce.Field, Msg: ce.Msg, Unique: ce.Code == cdw.CodeUniqueness}
	}
	record := func(lo, hi int64, c errhandle.Classified) error {
		recorded++
		sql, err := sqlparse.Print(&sqlparse.InsertStmt{Table: replayErrTable, Rows: [][]sqlparse.Expr{{
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: lo},
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: hi},
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: int64(c.Code)},
			&sqlparse.Literal{Kind: sqlparse.LitString, Str: c.Field},
			&sqlparse.Literal{Kind: sqlparse.LitString, Str: c.Msg},
		}}}, sqlparse.DialectCDW)
		if err != nil {
			return err
		}
		_, _, err = r.exec(sql)
		return err
	}
	h := errhandle.New(errhandle.Config{MaxErrors: r.in.MaxErrors}, apply, classify, record)
	r.takeEngineBusy()
	dur, err := r.span("errhandle.run", func() error { return h.Run(ctx, 1, r.staged) })
	if err != nil {
		return fmt.Errorf("application phase: %w", err)
	}
	r.chain += dur
	st := h.Stats()
	r.m["errhandle.attempts_per_job"] = float64(st.Attempts)
	r.m["errhandle.splits_per_job"] = float64(st.Splits)
	r.m["errhandle.stmts_per_error"] = ratio(float64(st.Attempts), float64(recorded))
	r.m["errhandle.useful_share"] = ratio(float64(okStmts), float64(st.Attempts))
	r.m["cdw.apply_ns_per_row"] = ratio(float64(okDur), float64(okRows))
	r.m["cdw.range_dml_ns_per_row"] = ratio(float64(r.takeEngineBusy()), float64(r.staged))
	return nil
}

// keyExprs finds the insert expressions feeding the target's primary key,
// the inputs of the uniqueness-emulation queries.
func keyExprs(dml *sqlxlate.DML, meta *cdwnet.TableMeta) ([]sqlparse.Expr, []string) {
	var exprs []sqlparse.Expr
	var cols []string
	for _, pk := range meta.PrimaryKey {
		e, ok := dml.NamedInsertExpr(pk)
		for i := 0; !ok && i < len(meta.Columns); i++ {
			if strings.EqualFold(meta.Columns[i].Name, pk) {
				e, ok = dml.PositionalInsertExpr(i)
			}
		}
		if ok {
			exprs = append(exprs, e)
			cols = append(cols, pk)
		}
	}
	return exprs, cols
}

// roundTrip: what a pooled round trip costs beyond the engine time inside it,
// on a statement that does next to nothing.
func (r *replayer) roundTrip() error {
	trivial := "SELECT COUNT(*) FROM " + sqlxlate.QuoteName(replayErrTable) + " WHERE SEQNO < 0"
	var rtts, engines []float64
	for i := 0; i < replayRTTN; i++ {
		r.takeEngineBusy()
		start := time.Now()
		if _, _, err := r.pool.QueryAll(trivial); err != nil {
			return fmt.Errorf("trivial round trip: %w", err)
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds()))
		engines = append(engines, float64(r.takeEngineBusy().Nanoseconds()))
	}
	r.m["cdwnet.rtt_overhead_us"] = (median(rtts) - median(engines)) / 1e3
	return nil
}

// export: cursor scan of the loaded target, TDF packets, legacy record
// encoding.
func (r *replayer) export() error {
	client, err := r.pool.Get()
	if err != nil {
		return fmt.Errorf("checking out CDW connection: %w", err)
	}
	var batches [][][]cdw.Datum
	var cols []cdwnet.ResultCol
	scanDur, err := r.span("cdw.scan", func() error {
		cur, err := client.Query("SELECT * FROM "+r.dml.Target.String()+" ORDER BY "+r.meta.PrimaryKey[0], 4096)
		if err != nil {
			return err
		}
		cols = cur.Columns()
		for {
			batch, ok, err := cur.NextBatch()
			if err != nil || !ok {
				return err
			}
			batches = append(batches, batch)
		}
	})
	r.pool.Put(client)
	if err != nil {
		return fmt.Errorf("export scan: %w", err)
	}
	tdfCols := make([]tdf.Column, len(cols))
	outLayout := &ltype.Layout{Name: "export"}
	for i, c := range cols {
		tdfCols[i] = tdf.Column{Name: c.Name, DeclType: c.Type.String()}
		outLayout.Fields = append(outLayout.Fields, ltype.Field{Name: c.Name, Type: ltype.VarChar(128)})
	}
	var scanned int
	var tdfEnc, tdfDec, ltEnc time.Duration
	for seq, batch := range batches {
		scanned += len(batch)
		p := &tdf.Packet{Seq: uint64(seq), Columns: tdfCols}
		recs := make([]ltype.Record, len(batch))
		for i, row := range batch {
			vals := make([]tdf.Value, len(row))
			recs[i] = make(ltype.Record, len(row))
			for k, dt := range row {
				if dt.IsNull() {
					vals[k], recs[i][k] = tdf.Null(), ltype.NullValue(ltype.KindVarChar)
					continue
				}
				s := dt.Render()
				vals[k], recs[i][k] = tdf.String(s), ltype.StringValue(ltype.KindVarChar, s)
			}
			p.Rows = append(p.Rows, vals)
		}
		var packet []byte
		d, err := r.span("tdf.encode", func() error {
			var e error
			packet, e = tdf.EncodePacket(p)
			return e
		})
		if err != nil {
			return fmt.Errorf("encoding TDF packet: %w", err)
		}
		tdfEnc += d
		d, err = r.span("tdf.decode", func() error {
			_, e := tdf.DecodePacket(packet)
			return e
		})
		if err != nil {
			return fmt.Errorf("decoding TDF packet: %w", err)
		}
		tdfDec += d
		d, err = r.span("ltype.encode", func() error {
			var out []byte
			for _, rec := range recs {
				var e error
				if out, e = ltype.EncodeRecord(out[:0], outLayout, rec); e != nil {
					return e
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("encoding legacy records: %w", err)
		}
		ltEnc += d
	}
	r.m["cdw.scan_ns_per_row"] = ratio(float64(scanDur), float64(scanned))
	r.m["tdf.encode_ns_per_row"] = ratio(float64(tdfEnc), float64(scanned))
	r.m["tdf.decode_ns_per_row"] = ratio(float64(tdfDec), float64(scanned))
	r.m["ltype.encode_ns_per_row"] = ratio(float64(ltEnc), float64(scanned))
	return nil
}

// streamFraming: the input's records as one delta frame, split back apart.
func (r *replayer) streamFraming() error {
	var payload []byte
	for _, l := range r.lines {
		payload = stream.AppendDelta(payload, stream.OpUpdate, append([]byte(l), '\n'))
	}
	dur, err := r.span("stream.next_delta", func() error {
		rest := payload
		for len(rest) > 0 {
			var e error
			if _, _, rest, e = stream.NextDelta(rest, wire.FormatVartext); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("splitting delta frame: %w", err)
	}
	r.m["stream.next_delta_ns"] = ratio(float64(dur), float64(len(r.lines)))
	return nil
}

// streamDML: the stream's UPDATE…FROM / guarded INSERT pair over
// micro-batch ranges of a stream-sized stage and target.
func (r *replayer) streamDML() error {
	rows := r.staged
	if rows > replayStreamRows {
		rows = replayStreamRows
	}
	stageDDL, err := sqlxlate.StagingDDL(replayStreamStage, r.in.Layout)
	if err != nil {
		return err
	}
	if err := r.direct(stageDDL, strings.ReplaceAll(r.in.DDL, r.in.Table, r.streamTable()),
		fmt.Sprintf("INSERT INTO %s SELECT * FROM %s WHERE %s <= %d",
			sqlxlate.QuoteName(replayStreamStage), sqlxlate.QuoteName(replayStage), sqlxlate.SeqColumn, rows)); err != nil {
		return err
	}
	// Seed the stream's target from the full stage, a small range at a time
	// so that a dirty input's bad rows cost their range only.
	seed, err := r.tr.TranslateDML(strings.ReplaceAll(r.in.DML, r.in.Table, r.streamTable()))
	if err != nil {
		return fmt.Errorf("translating stream seed DML: %w", err)
	}
	for lo := int64(1); lo <= r.staged && lo <= replayStreamTarget; lo += replayStreamBatch {
		sql, err := seed.Apply.SQL(lo, lo+replayStreamBatch-1)
		if err != nil {
			return err
		}
		if err := r.engineTolerant(sql); err != nil {
			return fmt.Errorf("seeding stream target: %w", err)
		}
	}
	sd, err := r.streamStatements()
	if err != nil {
		return err
	}
	dur, err := r.span("cdw.stream_dml", func() error {
		for lo := int64(1); lo <= rows; lo += replayStreamBatch {
			hi := lo + replayStreamBatch - 1
			if hi > rows {
				hi = rows
			}
			for _, stmt := range []*sqlxlate.RangeStmt{sd.Update, sd.Insert} {
				if stmt == nil {
					continue
				}
				sql, err := stmt.SQL(lo, hi)
				if err != nil {
					return err
				}
				if err := r.engineTolerant(sql); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream DML: %w", err)
	}
	r.m["cdw.stream_dml_ns_per_delta"] = ratio(float64(dur), float64(rows))
	return nil
}

// engineTolerant runs sql on the engine and lets engine errors pass: a dirty
// input's bad rows fail a range here exactly as they did in the application
// phase, and that cost is part of the number.
func (r *replayer) engineTolerant(sql string) error {
	var ce *cdw.Error
	if _, err := r.eng.ExecSQL(sql); err != nil && !errors.As(err, &ce) {
		return err
	}
	return nil
}

// controller: the micro-batch sizer's per-commit decision.
func (r *replayer) controller() error {
	ctrl := stream.NewController(stream.Config{Target: 200 * time.Millisecond})
	stages := stream.Stages{Spool: time.Millisecond, Upload: 2 * time.Millisecond, Copy: 20 * time.Millisecond,
		Apply: 150 * time.Millisecond, Checkpoint: 5 * time.Millisecond}
	dur, _ := r.span("stream.controller", func() error {
		for i := 0; i < replayControllerN; i++ {
			ctrl.ObserveStages(64, 4096, time.Duration(150+i%100)*time.Millisecond, stages)
		}
		return nil
	})
	r.m["stream.controller_observe_ns"] = float64(dur) / replayControllerN
	return nil
}

// credit: uncontended acquire and release.
func (r *replayer) credit(ctx context.Context) error {
	mgr := credit.NewManager(8, 0)
	dur, err := r.span("credit.acquire", func() error {
		for i := 0; i < replayCreditN; i++ {
			c, err := mgr.Acquire(ctx, 4096)
			if err != nil {
				return err
			}
			c.Release()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("acquiring credit: %w", err)
	}
	r.m["credit.acquire_ns"] = float64(dur) / replayCreditN
	return nil
}
