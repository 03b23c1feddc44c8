// Package edw is the reference legacy Enterprise Data Warehouse: a server
// speaking the same wire protocol the virtualizer impersonates, but backed
// directly by a local engine with *legacy* semantics — enforced uniqueness
// constraints and native tuple-at-a-time DML application with per-tuple
// error capture (§2, §7 Figure 5).
//
// It serves two purposes in this repository:
//
//   - Correctness oracle: integration tests run the same ETL script against
//     the EDW and against the virtualizer+CDW, then compare target and error
//     tables — the paper's transparency claim, made executable.
//   - Baseline: its singleton-insert application path is the baseline system
//     of the error-handling experiment (§9 Figure 11).
package edw

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/convert"
	"etlvirt/internal/ltype"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/wire"
)

// Server is one legacy EDW instance.
type Server struct {
	eng   *cdw.Engine
	store *cloudstore.MemStore // scratch space for staging loads

	ln     net.Listener
	connWG sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	jobs   map[uint64]*loadJob
	exps   map[uint64]*exportJob
	strms  map[uint64]*streamSess
	marks  map[string]int64 // durable per-stream-name commit watermark
	closed bool

	nextJob     atomic.Uint64
	nextSession atomic.Uint32
}

// NewServer creates an EDW with an empty catalog.
func NewServer() *Server {
	store := cloudstore.NewMemStore()
	eng := cdw.NewEngine(store, cdw.Options{
		EnforceUniqueness: true,
		RowDetail:         true,
	})
	return &Server{
		eng:   eng,
		store: store,
		conns: make(map[net.Conn]struct{}),
		jobs:  make(map[uint64]*loadJob),
		exps:  make(map[uint64]*exportJob),
		strms: make(map[uint64]*streamSess),
		marks: make(map[string]int64),
	}
}

// Engine exposes the underlying engine for test seeding.
func (s *Server) Engine() *cdw.Engine { return s.eng }

// Listen binds addr and starts accepting connections.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connWG.Wait()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		// Bounded by the connection, not a context: Close() closes every
		// live conn, which unblocks serveConn's reads and ends the goroutine.
		go func() {
			defer s.connWG.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// loadJob is one import job on the legacy server. Acquisition converts and
// buffers records; the application phase is native tuple-at-a-time.
type loadJob struct {
	id    uint64
	req   *wire.BeginLoad
	conv  *convert.Converter
	tr    *sqlxlate.Translator
	stage sqlparse.TableName

	mu         sync.Mutex
	csv        bytes.Buffer
	maxSeq     int64
	rowsStaged int64
	dataErrors []convert.DataError
	staged     bool
}

// exportJob is one export job: the result set is materialized and served in
// chunk-sized slices.
type exportJob struct {
	id     uint64
	layout *ltype.Layout
	rows   [][]cdw.Datum
	format wire.DataFormat
	delim  byte
	chunk  int
}

const exportChunkRows = 4096

func (s *Server) serveConn(nc net.Conn) {
	c := wire.NewConn(nc)
	defer c.Close()
	m, _, err := c.Recv()
	if err != nil {
		return
	}
	if _, ok := m.(*wire.Logon); !ok {
		_ = c.Send(0, &wire.Failure{Code: 3001, Message: "expected logon"})
		return
	}
	session := s.nextSession.Add(1)
	if err := c.Send(session, &wire.LogonOK{SessionID: session, ServerVersion: "legacy-edw/7.2"}); err != nil {
		return
	}
	for {
		m, _, err := c.Recv()
		if err != nil {
			return
		}
		var replyErr error
		switch msg := m.(type) {
		case *wire.Logoff:
			return
		case *wire.RunSQL:
			replyErr = s.handleRunSQL(c, session, msg)
		case *wire.BeginLoad:
			replyErr = s.handleBeginLoad(c, session, msg)
		case *wire.AttachLoad:
			if _, ok := s.job(msg.JobID); !ok {
				replyErr = c.Send(session, &wire.Failure{Code: 3005, Message: "no such job"})
			} else {
				replyErr = c.Send(session, &wire.AttachOK{})
			}
		case *wire.DataChunk:
			replyErr = s.handleChunk(c, session, msg)
		case *wire.EndAcquire:
			replyErr = s.handleEndAcquire(c, session, msg)
		case *wire.ApplyDML:
			replyErr = s.handleApply(c, session, msg)
		case *wire.EndLoad:
			s.mu.Lock()
			j, ok := s.jobs[msg.JobID]
			delete(s.jobs, msg.JobID)
			s.mu.Unlock()
			if ok {
				_, _ = s.eng.Exec(&sqlparse.DropTableStmt{Table: j.stage, IfExists: true})
			}
			replyErr = c.Send(session, &wire.LoadDone{JobID: msg.JobID})
		case *wire.BeginStream:
			replyErr = s.handleBeginStream(c, session, msg)
		case *wire.DeltaFrame:
			replyErr = s.handleDeltaFrame(c, session, msg)
		case *wire.EndStream:
			replyErr = s.handleEndStream(c, session, msg)
		case *wire.BeginExport:
			replyErr = s.handleBeginExport(c, session, msg)
		case *wire.ExportChunkRq:
			replyErr = s.handleExportChunk(c, session, msg)
		case *wire.EndExport:
			s.mu.Lock()
			delete(s.exps, msg.JobID)
			s.mu.Unlock()
			replyErr = c.Send(session, &wire.LoadDone{JobID: msg.JobID})
		default:
			replyErr = c.Send(session, &wire.Failure{Code: 3003,
				Message: fmt.Sprintf("unexpected message %s", m.Kind())})
		}
		if replyErr != nil {
			return
		}
	}
}

func (s *Server) job(id uint64) (*loadJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// translator builds the statement rewriter used to execute legacy SQL on the
// internal engine. The "translation" here is not replatforming — it is the
// legacy server's own parser mapped onto our shared evaluator.
func (s *Server) translator() *sqlxlate.Translator {
	return &sqlxlate.Translator{}
}

func (s *Server) handleRunSQL(c *wire.Conn, session uint32, m *wire.RunSQL) error {
	cdwSQL, err := s.translator().Translate(m.SQL)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: err.Error()})
	}
	res, err := s.eng.ExecSQL(cdwSQL)
	if err != nil {
		ee := cdw.AsError(err)
		return c.Send(session, &wire.Failure{Code: uint32(ee.Code), Message: ee.Msg})
	}
	if len(res.Columns) == 0 {
		return c.Send(session, &wire.StmtSuccess{ActivityCount: uint64(res.Activity)})
	}
	layout := layoutFromCols("result", res.Columns)
	if err := c.Send(session, &wire.RecordHeader{Layout: layout}); err != nil {
		return err
	}
	payload, err := encodeRows(res.Rows, layout, wire.FormatIndicator, 0)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 1000, Message: err.Error()})
	}
	if err := c.Send(session, &wire.Records{Count: uint32(len(res.Rows)), Payload: payload}); err != nil {
		return err
	}
	return c.Send(session, &wire.EndStatement{})
}

func (s *Server) handleBeginLoad(c *wire.Conn, session uint32, m *wire.BeginLoad) error {
	conv, err := convert.NewConverter(m.Layout, m.Format, m.Delim, convert.Options{})
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3004, Message: err.Error()})
	}
	id := s.nextJob.Add(1)
	j := &loadJob{
		id:    id,
		req:   m,
		conv:  conv,
		stage: sqlparse.TableName{Schema: "edw_work", Name: fmt.Sprintf("job_%d", id)},
	}
	j.tr = &sqlxlate.Translator{Stage: j.stage, StageAlias: "s", Layout: m.Layout}

	ddl, err := sqlxlate.StagingDDL(j.stage, m.Layout)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3004, Message: err.Error()})
	}
	stmts := []string{ddl}
	for _, et := range []string{m.ErrTableET, m.ErrTableUV} {
		if et == "" {
			continue
		}
		etDDL, err := sqlxlate.ErrorTableDDL(sqlparse.ParseTableName(et))
		if err != nil {
			return c.Send(session, &wire.Failure{Code: 3004, Message: err.Error()})
		}
		drop, _ := sqlparse.Print(&sqlparse.DropTableStmt{Table: sqlparse.ParseTableName(et), IfExists: true}, sqlparse.DialectCDW)
		stmts = append(stmts, drop, etDDL)
	}
	for _, st := range stmts {
		if _, err := s.eng.ExecSQL(st); err != nil {
			return c.Send(session, &wire.Failure{Code: 3004, Message: err.Error()})
		}
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	return c.Send(session, &wire.LoadOK{JobID: id})
}

// handleChunk converts and buffers one chunk synchronously — the legacy
// server caches raw data until the client says what to do with it (§2).
func (s *Server) handleChunk(c *wire.Conn, session uint32, m *wire.DataChunk) error {
	j, ok := s.job(m.JobID)
	if !ok {
		return c.Send(session, &wire.Failure{Code: 3005, Message: "no such job"})
	}
	res, err := j.conv.Convert(m.Payload, int64(m.FirstRow))
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 2675, Message: err.Error()})
	}
	j.mu.Lock()
	j.csv.Write(res.CSV)
	j.rowsStaged += int64(res.Rows)
	j.dataErrors = append(j.dataErrors, res.Errors...)
	if top := int64(m.FirstRow) + int64(m.Count) - 1; top > j.maxSeq {
		j.maxSeq = top
	}
	j.mu.Unlock()
	return c.Send(session, &wire.ChunkAck{Seq: m.Seq})
}

func (s *Server) handleEndAcquire(c *wire.Conn, session uint32, m *wire.EndAcquire) error {
	j, ok := s.job(m.JobID)
	if !ok {
		return c.Send(session, &wire.Failure{Code: 3005, Message: "no such job"})
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.staged {
		key := fmt.Sprintf("edw/job%d.csv", j.id)
		if err := s.store.Put(key, bytes.NewReader(j.csv.Bytes())); err != nil {
			return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
		}
		copySQL, _ := sqlparse.Print(&sqlparse.CopyStmt{
			Table: j.stage, From: "store://" + key,
			Options: map[string]string{"format": "csv"},
		}, sqlparse.DialectCDW)
		if _, err := s.eng.ExecSQL(copySQL); err != nil {
			return c.Send(session, &wire.Failure{Code: 3006, Message: cdw.AsError(err).Msg})
		}
		_ = s.store.Delete(key)
		// record acquisition data errors
		for _, de := range j.dataErrors {
			if err := s.recordError(j.req.ErrTableET, de.Row, de.Row, de.Code, de.Field, de.Msg); err != nil {
				return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
			}
		}
		j.staged = true
	}
	return c.Send(session, &wire.AcquireDone{
		JobID:      j.id,
		RowsStaged: uint64(j.rowsStaged),
		DataErrors: uint64(len(j.dataErrors)),
	})
}

func (s *Server) recordError(table string, lo, hi int64, code int, field, msg string) error {
	if table == "" {
		return nil
	}
	ins := &sqlparse.InsertStmt{
		Table: sqlparse.ParseTableName(table),
		Rows: [][]sqlparse.Expr{{
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: lo},
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: hi},
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: int64(code)},
			&sqlparse.Literal{Kind: sqlparse.LitString, Str: field},
			&sqlparse.Literal{Kind: sqlparse.LitString, Str: msg},
		}},
	}
	_, err := s.eng.Exec(ins)
	return err
}

// handleApply is the legacy application phase: tuple-at-a-time with native
// per-tuple error capture — also the singleton-insert baseline of Figure 11.
func (s *Server) handleApply(c *wire.Conn, session uint32, m *wire.ApplyDML) error {
	j, ok := s.job(m.JobID)
	if !ok {
		return c.Send(session, &wire.Failure{Code: 3005, Message: "no such job"})
	}
	dml, err := j.tr.TranslateDML(m.SQL)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: err.Error()})
	}
	target := dml.Target.String()
	var inserted, updated, deleted, errsET, errsUV int64
	j.mu.Lock()
	maxSeq := j.maxSeq
	j.mu.Unlock()
	for seq := int64(1); seq <= maxSeq; seq++ {
		sql, err := dml.Apply.SQL(seq, seq)
		if err != nil {
			return c.Send(session, &wire.Failure{Code: 1000, Message: err.Error()})
		}
		res, err := s.eng.ExecSQL(sql)
		var res2 *cdw.Result
		if err == nil && dml.ApplySecond != nil {
			// upsert: the guarded INSERT half for this tuple
			var sql2 string
			if sql2, err = dml.ApplySecond.SQL(seq, seq); err != nil {
				return c.Send(session, &wire.Failure{Code: 1000, Message: err.Error()})
			}
			res2, err = s.eng.ExecSQL(sql2)
		}
		if err != nil {
			ee := cdw.AsError(err)
			if cdw.Structural(ee.Code) {
				return c.Send(session, &wire.Failure{Code: uint32(ee.Code), Message: ee.Msg})
			}
			table := j.req.ErrTableET
			msg := fmt.Sprintf("%s during DML on %s, row number: %d", ee.Msg, target, seq)
			if ee.Code == cdw.CodeUniqueness {
				table = j.req.ErrTableUV
				errsUV++
			} else {
				errsET++
			}
			if err := s.recordError(table, seq, seq, ee.Code, ee.Field, msg); err != nil {
				return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
			}
			continue
		}
		switch dml.Kind {
		case sqlxlate.DMLInsert:
			inserted += res.Activity
		case sqlxlate.DMLUpdate:
			updated += res.Activity
		case sqlxlate.DMLDelete:
			deleted += res.Activity
		case sqlxlate.DMLUpsert:
			updated += res.Activity
			if res2 != nil {
				inserted += res2.Activity
			}
		}
	}
	return c.Send(session, &wire.ApplyResult{
		JobID:    j.id,
		Inserted: uint64(inserted), Updated: uint64(updated), Deleted: uint64(deleted),
		ErrorsET: uint64(errsET), ErrorsUV: uint64(errsUV),
	})
}

func (s *Server) handleBeginExport(c *wire.Conn, session uint32, m *wire.BeginExport) error {
	cdwSQL, err := s.translator().Translate(m.SQL)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: err.Error()})
	}
	res, err := s.eng.ExecSQL(cdwSQL)
	if err != nil {
		ee := cdw.AsError(err)
		return c.Send(session, &wire.Failure{Code: uint32(ee.Code), Message: ee.Msg})
	}
	id := s.nextJob.Add(1)
	delim := m.Delim
	if delim == 0 {
		delim = '|'
	}
	j := &exportJob{
		id:     id,
		layout: layoutFromCols(fmt.Sprintf("export_%d", id), res.Columns),
		rows:   res.Rows,
		format: m.Format,
		delim:  delim,
		chunk:  exportChunkRows,
	}
	s.mu.Lock()
	s.exps[id] = j
	s.mu.Unlock()
	return c.Send(session, &wire.ExportOK{JobID: id, Layout: j.layout})
}

func (s *Server) handleExportChunk(c *wire.Conn, session uint32, m *wire.ExportChunkRq) error {
	s.mu.Lock()
	j, ok := s.exps[m.JobID]
	s.mu.Unlock()
	if !ok {
		return c.Send(session, &wire.Failure{Code: 3005, Message: "no such job"})
	}
	start := int(m.Seq) * j.chunk
	if start >= len(j.rows) {
		return c.Send(session, &wire.ExportChunk{JobID: j.id, Seq: m.Seq, EOF: true})
	}
	end := start + j.chunk
	if end > len(j.rows) {
		end = len(j.rows)
	}
	payload, err := encodeRows(j.rows[start:end], j.layout, j.format, j.delim)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 1000, Message: err.Error()})
	}
	return c.Send(session, &wire.ExportChunk{
		JobID: j.id, Seq: m.Seq, Count: uint32(end - start),
		EOF: end == len(j.rows), Payload: payload,
	})
}

// --- result encoding (legacy direction) ---

func layoutFromCols(name string, cols []cdw.ResultCol) *ltype.Layout {
	l := &ltype.Layout{Name: name}
	for _, c := range cols {
		l.Fields = append(l.Fields, ltype.Field{Name: c.Name, Type: colTypeToLegacy(c.Type)})
	}
	return l
}

func colTypeToLegacy(t cdw.ColType) ltype.Type {
	switch t.Kind {
	case cdw.KBool:
		return ltype.Simple(ltype.KindByteInt)
	case cdw.KInt:
		return ltype.Simple(ltype.KindBigInt)
	case cdw.KFloat:
		return ltype.Simple(ltype.KindFloat)
	case cdw.KDecimal:
		return ltype.Decimal(t.Precision, t.Scale)
	case cdw.KString:
		n := t.Length
		if n <= 0 {
			n = 4000
		}
		return ltype.VarChar(n)
	case cdw.KDate:
		return ltype.Simple(ltype.KindDate)
	case cdw.KTime:
		return ltype.Simple(ltype.KindTime)
	case cdw.KTimestamp:
		return ltype.Simple(ltype.KindTimestamp)
	case cdw.KBytes:
		n := t.Length
		if n <= 0 {
			n = 4000
		}
		return ltype.Type{Kind: ltype.KindVarByte, Length: n}
	default:
		return ltype.VarChar(4000)
	}
}

func encodeRows(rows [][]cdw.Datum, layout *ltype.Layout, format wire.DataFormat, delim byte) ([]byte, error) {
	var out []byte
	for _, row := range rows {
		rec := make(ltype.Record, len(row))
		for i, d := range row {
			v, err := datumToLegacy(d, layout.Fields[i].Type)
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		if format == wire.FormatVartext {
			fields := make([]string, len(rec))
			for i, v := range rec {
				fields[i] = v.Text()
			}
			out = ltype.AppendVartext(out, fields, delim)
		} else {
			var err error
			out, err = ltype.EncodeRecord(out, layout, rec)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func datumToLegacy(d cdw.Datum, lt ltype.Type) (ltype.Value, error) {
	if d.IsNull() {
		return ltype.NullValue(lt.Kind), nil
	}
	switch lt.Kind {
	case ltype.KindByteInt, ltype.KindSmallInt, ltype.KindInteger, ltype.KindBigInt:
		if d.Kind == cdw.KInt {
			return ltype.IntValue(lt.Kind, d.I), nil
		}
		if d.Kind == cdw.KBool {
			if d.Bool {
				return ltype.IntValue(lt.Kind, 1), nil
			}
			return ltype.IntValue(lt.Kind, 0), nil
		}
	case ltype.KindFloat:
		if d.Kind == cdw.KFloat {
			return ltype.FloatValue(d.F), nil
		}
	case ltype.KindDecimal:
		if d.Kind == cdw.KDecimal {
			v := ltype.IntValue(ltype.KindDecimal, d.I)
			v.S = ltype.FormatDecimal(d.I, int(d.Scale))
			return v, nil
		}
	case ltype.KindChar, ltype.KindVarChar:
		return ltype.StringValue(lt.Kind, d.Render()), nil
	case ltype.KindDate:
		if d.Kind == cdw.KDate {
			t := time.Unix(d.I*86400, 0).UTC()
			return ltype.DateValue(t.Year(), int(t.Month()), t.Day()), nil
		}
	case ltype.KindTime:
		if d.Kind == cdw.KTime {
			return ltype.IntValue(ltype.KindTime, d.I), nil
		}
	case ltype.KindTimestamp:
		if d.Kind == cdw.KTimestamp {
			return ltype.StringValue(ltype.KindTimestamp,
				time.UnixMicro(d.I).UTC().Format("2006-01-02 15:04:05")), nil
		}
	case ltype.KindByte, ltype.KindVarByte:
		if d.Kind == cdw.KBytes {
			return ltype.BytesValue(lt.Kind, d.B), nil
		}
	}
	return ltype.Value{}, fmt.Errorf("edw: cannot convert %s to %s", d.Kind, lt.Kind)
}
