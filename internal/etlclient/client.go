// Package etlclient is the legacy ETL client: it executes parsed job
// scripts against any server speaking the legacy wire protocol — the
// original EDW (internal/edw) or the virtualizer (internal/core). That a
// single unmodified client works against both is the paper's transparency
// claim.
//
// The client reproduces the legacy utilities' behaviour described in §2:
// it opens parallel data-loading sessions, splits the input into chunks,
// transmits them with a synchronous per-session ack protocol, submits the
// application-phase DML, and finally queries error counts.
package etlclient

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/etlscript"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
	"etlvirt/internal/wire"
)

// Options configures script execution.
type Options struct {
	// Addr is the server address; overrides the script's .logon host when
	// set.
	Addr string
	// ChunkRecords bounds records per data chunk. Zero defaults to 500.
	ChunkRecords int
	// Sessions overrides the per-block session count. Zero keeps the
	// script's value (default 1).
	Sessions int
	// StreamLatencyMS overrides the per-block micro-batch commit latency
	// target for stream blocks. Zero keeps the script's value (0 = server
	// default).
	StreamLatencyMS int
	// ReadFile loads input files; nil uses os.ReadFile. Benchmarks inject
	// generated data here.
	ReadFile func(name string) ([]byte, error)
	// WriteFile stores export output; nil uses os.WriteFile.
	WriteFile func(name string, data []byte) error
	// Trace enables client-side distributed tracing: the run mints one
	// trace ID, every import and stream job propagates it on its Begin
	// message so the server continues the trace, and the client ships its
	// local spans to the server before tearing the job down. Legacy servers
	// without tracing support still execute the job; only the span fold is
	// skipped.
	Trace bool
}

func (o Options) withDefaults() Options {
	if o.ChunkRecords <= 0 {
		o.ChunkRecords = 500
	}
	if o.ReadFile == nil {
		o.ReadFile = os.ReadFile
	}
	if o.WriteFile == nil {
		o.WriteFile = func(name string, data []byte) error {
			return os.WriteFile(name, data, 0o644)
		}
	}
	return o
}

// ImportResult reports one executed import block.
type ImportResult struct {
	Table      string
	RowsSent   int64
	RowsStaged int64
	DataErrors int64
	Inserted   int64
	Updated    int64
	Deleted    int64
	ErrorsET   int64
	ErrorsUV   int64

	Acquisition time.Duration // first chunk sent -> AcquireDone
	Application time.Duration // ApplyDML round trips
	Total       time.Duration // BeginLoad -> LoadDone
}

// ExportResult reports one executed export block.
type ExportResult struct {
	Outfile string
	Rows    int64
	Total   time.Duration
}

// Result is the outcome of a full script run.
type Result struct {
	Imports []ImportResult
	Exports []ExportResult
	Streams []StreamResult

	// TraceID is the run's distributed trace ID (16 hex digits) when
	// Options.Trace is set; fetch /traces/{TraceID} on the server's debug
	// listener for the stitched cross-process timeline.
	TraceID string
}

// Run executes a script.
func Run(script *etlscript.Script, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	addr := opts.Addr
	if addr == "" {
		addr = script.Logon.Host
	}
	ctl, err := logon(addr, script.Logon)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = ctl.Send(0, &wire.Logoff{})
		ctl.Close()
	}()

	var traceID uint64
	res := &Result{}
	if opts.Trace {
		traceID = obs.NewTraceID()
		res.TraceID = obs.FormatTraceID(traceID)
	}
	for _, step := range script.Steps {
		switch {
		case step.Import != nil:
			ir, err := runImport(ctl, addr, script, step.Import, opts, traceID)
			if err != nil {
				return res, err
			}
			res.Imports = append(res.Imports, *ir)
		case step.Export != nil:
			er, err := runExport(ctl, addr, script.Logon, step.Export, opts, traceID)
			if err != nil {
				return res, err
			}
			res.Exports = append(res.Exports, *er)
		case step.Stream != nil:
			sr, err := runStream(ctl, script, step.Stream, opts, traceID)
			if err != nil {
				return res, err
			}
			res.Streams = append(res.Streams, *sr)
		case step.SQL != "":
			if err := runAdhoc(ctl, step.SQL); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

func logon(addr string, lg etlscript.Logon) (*wire.Conn, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("etlclient: dialing %s: %w", addr, err)
	}
	if err := c.Send(0, &wire.Logon{Host: lg.Host, User: lg.User, Password: lg.Password}); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := c.Expect(wire.KindLogonOK); err != nil {
		c.Close()
		return nil, fmt.Errorf("etlclient: logon rejected: %w", err)
	}
	return c, nil
}

// runAdhoc executes a .run statement and discards any result rows.
func runAdhoc(ctl *wire.Conn, sql string) error {
	if err := ctl.Send(0, &wire.RunSQL{SQL: sql}); err != nil {
		return err
	}
	for {
		m, _, err := ctl.Recv()
		if err != nil {
			return err
		}
		switch v := m.(type) {
		case *wire.StmtSuccess, *wire.EndStatement:
			return nil
		case *wire.RecordHeader, *wire.Records:
			// drain result set
		case *wire.Failure:
			return v
		default:
			return fmt.Errorf("etlclient: unexpected %s during .run", m.Kind())
		}
	}
}

// QueryRows runs a SQL request on a fresh connection and decodes the result
// rows (used by tests and examples to inspect server state through the
// legacy protocol).
func QueryRows(addr string, lg etlscript.Logon, sql string) (*ltype.Layout, []ltype.Record, error) {
	c, err := logon(addr, lg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		_ = c.Send(0, &wire.Logoff{})
		c.Close()
	}()
	if err := c.Send(0, &wire.RunSQL{SQL: sql}); err != nil {
		return nil, nil, err
	}
	var layout *ltype.Layout
	var rows []ltype.Record
	for {
		m, _, err := c.Recv()
		if err != nil {
			return nil, nil, err
		}
		switch v := m.(type) {
		case *wire.RecordHeader:
			layout = v.Layout
		case *wire.Records:
			if layout == nil {
				return nil, nil, fmt.Errorf("etlclient: records before header")
			}
			payload := v.Payload
			for len(payload) > 0 {
				rec, n, err := ltype.DecodeRecord(payload, layout)
				if err != nil {
					return nil, nil, err
				}
				rows = append(rows, rec)
				payload = payload[n:]
			}
		case *wire.EndStatement:
			return layout, rows, nil
		case *wire.StmtSuccess:
			return layout, rows, nil
		case *wire.Failure:
			return nil, nil, v
		default:
			return nil, nil, fmt.Errorf("etlclient: unexpected %s", m.Kind())
		}
	}
}

// Exec runs a non-query SQL request on a fresh connection and returns the
// activity count.
func Exec(addr string, lg etlscript.Logon, sql string) (int64, error) {
	c, err := logon(addr, lg)
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = c.Send(0, &wire.Logoff{})
		c.Close()
	}()
	if err := c.Send(0, &wire.RunSQL{SQL: sql}); err != nil {
		return 0, err
	}
	m, err := c.Expect(wire.KindStmtSuccess)
	if err != nil {
		return 0, err
	}
	return int64(m.(*wire.StmtSuccess).ActivityCount), nil
}

// clientTrace is the client half of one job's distributed trace: local
// spans accumulate in a JobTrace, the root span's context rides the job's
// Begin message so the server's per-job trace parents under it, and ship
// folds the client spans into the server timeline at job end. A nil
// clientTrace (tracing off) makes every method a no-op.
type clientTrace struct {
	jt   *obs.JobTrace
	root uint64
}

func newClientTrace(traceID uint64, label string) *clientTrace {
	if traceID == 0 {
		return nil
	}
	root := obs.NewSpanID()
	tc := obs.TraceContext{TraceID: traceID, SpanID: root, Sampled: true}
	return &clientTrace{jt: obs.NewJobTrace(label, 0, "etlclient", tc), root: root}
}

// ctx is the context to propagate on the job's Begin message.
func (t *clientTrace) ctx() obs.TraceContext {
	if t == nil {
		return obs.TraceContext{}
	}
	return t.jt.Context()
}

// span records a completed client-side stage, parented under the client
// root span. Safe from concurrent session goroutines.
func (t *clientTrace) span(stage, worker string, start time.Time, rows, bytes int64, err error) {
	if t == nil {
		return
	}
	s := obs.Span{Parent: t.root, Stage: stage, Worker: worker,
		Start: start, Dur: time.Since(start), Rows: rows, Bytes: bytes}
	if err != nil {
		s.Err = err.Error()
	}
	t.jt.Add(s)
}

// ship closes the client root span and sends the collected spans to the
// server, which folds them into the job's timeline and acks. A legacy
// server that predates tracing answers with a Failure; the job still
// succeeded, so the spans are dropped and the run continues.
func (t *clientTrace) ship(ctl *wire.Conn, jobID uint64) error {
	if t == nil {
		return nil
	}
	snap := t.jt.Snapshot()
	spans := make([]obs.Span, 0, len(snap.Spans)+1)
	spans = append(spans, obs.Span{
		ID: t.root, Proc: "etlclient", Stage: "client", Worker: "job",
		Start: t.jt.Begin, Dur: time.Since(t.jt.Begin),
	})
	spans = append(spans, snap.Spans...)
	if err := ctl.Send(0, &wire.TraceSpans{JobID: jobID, Spans: spans}); err != nil {
		return err
	}
	if _, err := ctl.Expect(wire.KindTraceAck); err != nil {
		var f *wire.Failure
		if errors.As(err, &f) {
			return nil
		}
		return err
	}
	return nil
}

// chunk is one pre-split data chunk.
type chunk struct {
	seq      uint64
	firstRow uint64
	count    uint32
	payload  []byte
}

// splitInput splits raw input-file contents into chunks of at most
// chunkRecords records, preserving record boundaries.
func splitInput(data []byte, format wire.DataFormat, chunkRecords int) ([]chunk, int64, error) {
	var chunks []chunk
	var row uint64 = 1
	var seq uint64
	switch format {
	case wire.FormatVartext:
		lines := ltype.SplitVartextLines(data)
		for start := 0; start < len(lines); start += chunkRecords {
			end := start + chunkRecords
			if end > len(lines) {
				end = len(lines)
			}
			size := 0
			for _, l := range lines[start:end] {
				size += len(l) + 1
			}
			payload := make([]byte, 0, size)
			for _, l := range lines[start:end] {
				payload = append(payload, l...)
				payload = append(payload, '\n')
			}
			chunks = append(chunks, chunk{
				seq: seq, firstRow: row, count: uint32(end - start), payload: payload,
			})
			seq++
			row += uint64(end - start)
		}
		return chunks, int64(len(lines)), nil

	case wire.FormatIndicator:
		total := int64(0)
		rest := data
		for len(rest) > 0 {
			// Records lie back to back, so a chunk is one span of the input.
			size, count := 0, 0
			for count < chunkRecords && size < len(rest) {
				rec, _, ok := ltype.NextRecord(rest[size:])
				if !ok {
					return nil, 0, fmt.Errorf("etlclient: truncated record in input")
				}
				size += len(rec)
				count++
			}
			payload := append([]byte(nil), rest[:size]...)
			rest = rest[size:]
			chunks = append(chunks, chunk{
				seq: seq, firstRow: row, count: uint32(count), payload: payload,
			})
			seq++
			row += uint64(count)
			total += int64(count)
		}
		return chunks, total, nil

	default:
		return nil, 0, fmt.Errorf("etlclient: unknown format %d", format)
	}
}

func runImport(ctl *wire.Conn, addr string, script *etlscript.Script, blk *etlscript.ImportBlock, opts Options, traceID uint64) (*ImportResult, error) {
	start := time.Now()
	if len(blk.Imports) == 0 {
		return nil, fmt.Errorf("etlclient: import block has no .import command")
	}
	// Multiple .import commands feed one job; they must agree on layout,
	// format and apply label since the job stages everything into one table
	// and runs one application phase.
	imp := blk.Imports[0]
	for _, other := range blk.Imports[1:] {
		if !strings.EqualFold(other.LayoutName, imp.LayoutName) ||
			other.Format != imp.Format || other.Delim != imp.Delim ||
			!strings.EqualFold(other.ApplyLabel, imp.ApplyLabel) {
			return nil, fmt.Errorf("etlclient: .import commands in one block must share layout, format and apply label")
		}
	}
	layout, err := script.Layout(imp.LayoutName)
	if err != nil {
		return nil, err
	}
	sessions := blk.Sessions
	if opts.Sessions > 0 {
		sessions = opts.Sessions
	}
	if sessions <= 0 {
		sessions = 1
	}

	var chunks []chunk
	var totalRows int64
	for _, cmd := range blk.Imports {
		data, err := opts.ReadFile(cmd.Infile)
		if err != nil {
			return nil, fmt.Errorf("etlclient: reading %s: %w", cmd.Infile, err)
		}
		fileChunks, fileRows, err := splitInput(data, cmd.Format, opts.ChunkRecords)
		if err != nil {
			return nil, fmt.Errorf("etlclient: %s: %w", cmd.Infile, err)
		}
		// renumber so sequence and row numbers continue across files
		for i := range fileChunks {
			fileChunks[i].seq += uint64(len(chunks))
			fileChunks[i].firstRow += uint64(totalRows)
		}
		chunks = append(chunks, fileChunks...)
		totalRows += fileRows
	}

	tr := newClientTrace(traceID, "import "+blk.Table)

	// (1) create the job
	begin := &wire.BeginLoad{
		Table:      blk.Table,
		ErrTableET: blk.ErrTableET,
		ErrTableUV: blk.ErrTableUV,
		Layout:     layout,
		Format:     imp.Format,
		Delim:      imp.Delim,
		Sessions:   uint16(sessions),
		MaxErrors:  uint32(blk.MaxErrors),
		MaxRetries: uint32(blk.MaxRetries),
	}
	if err := ctl.SendT(0, begin, tr.ctx()); err != nil {
		return nil, err
	}
	m, err := ctl.Expect(wire.KindLoadOK)
	if err != nil {
		return nil, fmt.Errorf("etlclient: begin load: %w", err)
	}
	jobID := m.(*wire.LoadOK).JobID

	// (2) parallel data sessions pump chunks with per-session sync acks
	acqStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(sessionSeq int) {
			defer wg.Done()
			dc, err := logon(addr, script.Logon)
			if err != nil {
				errs <- err
				return
			}
			defer func() {
				_ = dc.Send(0, &wire.Logoff{})
				dc.Close()
			}()
			if err := dc.Send(0, &wire.AttachLoad{JobID: jobID, SessionSeq: uint16(sessionSeq)}); err != nil {
				errs <- err
				return
			}
			if _, err := dc.Expect(wire.KindAttachOK); err != nil {
				errs <- err
				return
			}
			sessStart := time.Now()
			var sentRows, sentBytes int64
			defer func() {
				tr.span("send_chunks", fmt.Sprintf("session-%d", sessionSeq), sessStart, sentRows, sentBytes, nil)
			}()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(chunks)) {
					return
				}
				ck := chunks[i]
				msg := &wire.DataChunk{
					JobID: jobID, Seq: ck.seq, FirstRow: ck.firstRow,
					Count: ck.count, Payload: ck.payload,
				}
				if err := dc.Send(0, msg); err != nil {
					errs <- err
					return
				}
				ack, err := dc.Expect(wire.KindChunkAck)
				if err != nil {
					errs <- err
					return
				}
				if ack.(*wire.ChunkAck).Seq != ck.seq {
					errs <- fmt.Errorf("etlclient: ack for chunk %d, sent %d", ack.(*wire.ChunkAck).Seq, ck.seq)
					return
				}
				sentRows += int64(ck.count)
				sentBytes += int64(len(ck.payload))
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	// (3) finish acquisition
	waitStart := time.Now()
	if err := ctl.Send(0, &wire.EndAcquire{JobID: jobID}); err != nil {
		return nil, err
	}
	m, err = ctl.Expect(wire.KindAcquireDone)
	if err != nil {
		return nil, fmt.Errorf("etlclient: acquisition: %w", err)
	}
	done := m.(*wire.AcquireDone)
	acqDur := time.Since(acqStart)
	tr.span("acquire_wait", "control", waitStart, int64(done.RowsStaged), 0, nil)

	// (4) application phase
	res := &ImportResult{
		Table:       blk.Table,
		RowsSent:    totalRows,
		RowsStaged:  int64(done.RowsStaged),
		DataErrors:  int64(done.DataErrors),
		Acquisition: acqDur,
	}
	appStart := time.Now()
	label := imp.ApplyLabel
	sql := blk.DMLs[strings.ToLower(label)]
	if err := ctl.Send(0, &wire.ApplyDML{JobID: jobID, Label: label, SQL: sql}); err != nil {
		return nil, err
	}
	m, err = ctl.Expect(wire.KindApplyResult)
	if err != nil {
		return nil, fmt.Errorf("etlclient: apply %s: %w", label, err)
	}
	ar := m.(*wire.ApplyResult)
	res.Inserted = int64(ar.Inserted)
	res.Updated = int64(ar.Updated)
	res.Deleted = int64(ar.Deleted)
	res.ErrorsET = int64(ar.ErrorsET) + int64(done.DataErrors)
	res.ErrorsUV = int64(ar.ErrorsUV)
	res.Application = time.Since(appStart)
	tr.span("apply_wait", "control", appStart, res.Inserted+res.Updated+res.Deleted, 0, nil)

	// (5) tear the job down
	if err := tr.ship(ctl, jobID); err != nil {
		return nil, err
	}
	if err := ctl.Send(0, &wire.EndLoad{JobID: jobID}); err != nil {
		return nil, err
	}
	if _, err := ctl.Expect(wire.KindLoadDone); err != nil {
		return nil, err
	}
	res.Total = time.Since(start)
	return res, nil
}

func runExport(ctl *wire.Conn, addr string, lg etlscript.Logon, blk *etlscript.ExportBlock, opts Options, traceID uint64) (*ExportResult, error) {
	start := time.Now()
	sessions := blk.Sessions
	if opts.Sessions > 0 {
		sessions = opts.Sessions
	}
	if sessions <= 0 {
		sessions = 1
	}
	begin := &wire.BeginExport{
		SQL: blk.Query, Sessions: uint16(sessions),
		Format: blk.Format, Delim: blk.Delim,
	}
	tr := newClientTrace(traceID, "export "+blk.Outfile)
	if err := ctl.SendT(0, begin, tr.ctx()); err != nil {
		return nil, err
	}
	m, err := ctl.Expect(wire.KindExportOK)
	if err != nil {
		return nil, fmt.Errorf("etlclient: begin export: %w", err)
	}
	jobID := m.(*wire.ExportOK).JobID

	type got struct {
		seq     uint64
		payload []byte
		rows    uint32
	}
	var mu sync.Mutex
	received := map[uint64]got{}
	var eofSeq atomic.Int64
	eofSeq.Store(-1)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec, err := logon(addr, lg)
			if err != nil {
				errs <- err
				return
			}
			defer func() {
				_ = ec.Send(0, &wire.Logoff{})
				ec.Close()
			}()
			for {
				seq := uint64(next.Add(1) - 1)
				if e := eofSeq.Load(); e >= 0 && seq > uint64(e) {
					return
				}
				if err := ec.Send(0, &wire.ExportChunkRq{JobID: jobID, Seq: seq}); err != nil {
					errs <- err
					return
				}
				m, err := ec.Expect(wire.KindExportChunk)
				if err != nil {
					errs <- err
					return
				}
				ck := m.(*wire.ExportChunk)
				mu.Lock()
				if ck.Count > 0 {
					received[seq] = got{seq: seq, payload: ck.Payload, rows: ck.Count}
				}
				mu.Unlock()
				if ck.EOF {
					for {
						cur := eofSeq.Load()
						if cur >= 0 && cur <= int64(seq) {
							break
						}
						if eofSeq.CompareAndSwap(cur, int64(seq)) {
							break
						}
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	// assemble output in sequence order
	var out []byte
	var rows int64
	last := eofSeq.Load()
	for seq := uint64(0); last >= 0 && seq <= uint64(last); seq++ {
		if g, ok := received[seq]; ok {
			out = append(out, g.payload...)
			rows += int64(g.rows)
		}
	}
	tr.span("fetch_chunks", "control", start, rows, int64(len(out)), nil)
	if err := opts.WriteFile(blk.Outfile, out); err != nil {
		return nil, err
	}
	if err := tr.ship(ctl, jobID); err != nil {
		return nil, err
	}
	if err := ctl.Send(0, &wire.EndExport{JobID: jobID}); err != nil {
		return nil, err
	}
	if _, err := ctl.Expect(wire.KindLoadDone); err != nil {
		return nil, err
	}
	return &ExportResult{Outfile: blk.Outfile, Rows: rows, Total: time.Since(start)}, nil
}
