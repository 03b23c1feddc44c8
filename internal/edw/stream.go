package edw

import (
	"bytes"
	"fmt"

	"etlvirt/internal/cdw"
	"etlvirt/internal/convert"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// streamSess is one open CDC stream on the legacy server. The legacy EDW
// applies deltas the way it applies everything: tuple at a time, per-tuple
// error capture, in arrival order. Each frame is staged and applied
// synchronously before its ack — the reference semantics the virtualizer's
// micro-batched MERGE triple must reproduce.
type streamSess struct {
	id   uint64
	req  *wire.BeginStream
	conv *convert.Converter
	sd   *sqlxlate.StreamDML

	upsStage, delStage sqlparse.TableName

	watermark int64
	inserted  int64
	updated   int64
	deleted   int64
	errsET    int64
	replayed  int64
}

const streamFrameHint = 64

func (s *Server) stream(id uint64) (*streamSess, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.strms[id]
	return j, ok
}

func (s *Server) handleBeginStream(c *wire.Conn, session uint32, m *wire.BeginStream) error {
	if m.Layout == nil || m.Name == "" {
		return c.Send(session, &wire.Failure{Code: 3004, Message: "stream request needs a name and a layout"})
	}
	conv, err := convert.NewConverter(m.Layout, m.Format, m.Delim, convert.Options{})
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3004, Message: err.Error()})
	}
	id := s.nextJob.Add(1)
	j := &streamSess{
		id:       id,
		req:      m,
		conv:     conv,
		upsStage: sqlparse.TableName{Schema: "edw_work", Name: fmt.Sprintf("stream_%d_ups", id)},
		delStage: sqlparse.TableName{Schema: "edw_work", Name: fmt.Sprintf("stream_%d_del", id)},
	}
	tr := &sqlxlate.Translator{Stage: j.upsStage, StageAlias: "s", Layout: m.Layout}
	dml, err := tr.TranslateDML(m.SQL)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: err.Error()})
	}
	if dml.Kind != sqlxlate.DMLInsert {
		return c.Send(session, &wire.Failure{Code: 3706, Message: "stream apply DML must be an INSERT"})
	}
	meta, err := s.eng.Describe(dml.Target)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: uint32(cdw.AsError(err).Code), Message: cdw.AsError(err).Msg})
	}
	if len(meta.PrimaryKey) == 0 {
		return c.Send(session, &wire.Failure{Code: 3004,
			Message: fmt.Sprintf("stream target %s has no primary key", dml.Target.String())})
	}
	targetCols := make([]string, len(meta.Columns))
	for i, col := range meta.Columns {
		targetCols[i] = col.Name
	}
	if j.sd, err = tr.TranslateStreamDML(m.SQL, j.delStage, targetCols, meta.PrimaryKey); err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: err.Error()})
	}

	// The stream's name is its durable identity: a known name resumes from
	// its watermark and keeps its error table; a fresh one starts both clean.
	s.mu.Lock()
	wm, known := s.marks[m.Name]
	if !known {
		s.marks[m.Name] = 0
	}
	s.mu.Unlock()
	if !known && m.ErrTableET != "" {
		etDDL, err := sqlxlate.ErrorTableDDL(sqlparse.ParseTableName(m.ErrTableET))
		if err != nil {
			return c.Send(session, &wire.Failure{Code: 3004, Message: err.Error()})
		}
		drop, _ := sqlparse.Print(&sqlparse.DropTableStmt{Table: sqlparse.ParseTableName(m.ErrTableET), IfExists: true}, sqlparse.DialectCDW)
		for _, st := range []string{drop, etDDL} {
			if _, err := s.eng.ExecSQL(st); err != nil {
				return c.Send(session, &wire.Failure{Code: 3004, Message: cdw.AsError(err).Msg})
			}
		}
	}
	j.watermark = wm

	s.mu.Lock()
	s.strms[id] = j
	s.mu.Unlock()
	return c.Send(session, &wire.StreamOK{
		StreamID:  id,
		ResumeSeq: uint64(j.watermark),
		BatchHint: streamFrameHint,
	})
}

// handleDeltaFrame stages and applies one frame synchronously: replayed
// deltas are dropped, fresh ones land tuple at a time with per-tuple error
// capture, and the watermark advances before the ack — every acknowledged
// delta is durably applied.
func (s *Server) handleDeltaFrame(c *wire.Conn, session uint32, m *wire.DeltaFrame) error {
	j, ok := s.stream(m.StreamID)
	if !ok {
		return c.Send(session, &wire.Failure{Code: 3005, Message: "no such stream"})
	}
	type opAt struct {
		seq int64
		del bool
	}
	var (
		upsCSV, delCSV bytes.Buffer
		ops            []opAt
		dataErrs       []convert.DataError
	)
	rest := m.Payload
	parsed := 0
	hi := j.watermark
	for len(rest) > 0 {
		op, rec, r, err := stream.NextDelta(rest, j.req.Format)
		if err != nil {
			return c.Send(session, &wire.Failure{Code: 2675,
				Message: fmt.Sprintf("delta frame %d: %v", m.FirstSeq, err)})
		}
		seq := int64(m.FirstSeq) + int64(parsed)
		parsed++
		rest = r
		if seq <= j.watermark {
			j.replayed++
			continue
		}
		dst := &upsCSV
		if op == stream.OpDelete {
			dst = &delCSV
		}
		res, err := j.conv.ConvertInto(dst.Bytes(), rec, seq)
		if err != nil {
			return c.Send(session, &wire.Failure{Code: 2675, Message: err.Error()})
		}
		dst.Reset()
		dst.Write(res.CSV)
		if len(res.Errors) > 0 {
			dataErrs = append(dataErrs, res.Errors...)
		} else {
			ops = append(ops, opAt{seq: seq, del: op == stream.OpDelete})
		}
		if seq > hi {
			hi = seq
		}
	}
	if parsed != int(m.Count) {
		return c.Send(session, &wire.Failure{Code: 2675,
			Message: fmt.Sprintf("delta frame %d declares %d deltas, carries %d", m.FirstSeq, m.Count, parsed)})
	}

	if len(ops) > 0 {
		if err := s.stageFrame(j.upsStage, j.req, upsCSV.Bytes()); err != nil {
			return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
		}
		if err := s.stageFrame(j.delStage, j.req, delCSV.Bytes()); err != nil {
			return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
		}
	}
	for _, de := range dataErrs {
		j.errsET++
		if err := s.recordError(j.req.ErrTableET, de.Row, de.Row, de.Code, de.Field, de.Msg); err != nil {
			return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
		}
	}
	for _, op := range ops {
		if ferr, err := s.applyDelta(j, op.seq, op.del); err != nil {
			return c.Send(session, &wire.Failure{Code: 3006, Message: err.Error()})
		} else if ferr != nil {
			return c.Send(session, ferr)
		}
	}

	if hi > j.watermark {
		j.watermark = hi
		s.mu.Lock()
		s.marks[j.req.Name] = hi
		s.mu.Unlock()
	}
	return c.Send(session, &wire.DeltaAck{
		StreamID:     j.id,
		Seq:          m.FirstSeq,
		CommittedSeq: uint64(j.watermark),
		BatchHint:    streamFrameHint,
	})
}

// stageFrame rebuilds one staging table from the frame's converted CSV.
func (s *Server) stageFrame(stage sqlparse.TableName, req *wire.BeginStream, csv []byte) error {
	drop, _ := sqlparse.Print(&sqlparse.DropTableStmt{Table: stage, IfExists: true}, sqlparse.DialectCDW)
	ddl, err := sqlxlate.StagingDDL(stage, req.Layout)
	if err != nil {
		return err
	}
	for _, st := range []string{drop, ddl} {
		if _, err := s.eng.ExecSQL(st); err != nil {
			return err
		}
	}
	if len(csv) == 0 {
		return nil
	}
	key := fmt.Sprintf("edw/%s.csv", stage.Name)
	if err := s.store.Put(key, bytes.NewReader(csv)); err != nil {
		return err
	}
	defer func() { _ = s.store.Delete(key) }()
	copySQL, _ := sqlparse.Print(&sqlparse.CopyStmt{
		Table: stage, From: "store://" + key,
		Options: map[string]string{"format": "csv"},
	}, sqlparse.DialectCDW)
	if _, err := s.eng.ExecSQL(copySQL); err != nil {
		return fmt.Errorf("staging stream frame: %s", cdw.AsError(err).Msg)
	}
	return nil
}

// applyDelta applies one staged delta tuple-at-a-time. Apply-time failures
// (conversion in the DML's expressions, constraint violations) are captured
// in the stream's error table like any legacy per-tuple reject; structural
// errors abort the stream with the returned Failure.
func (s *Server) applyDelta(j *streamSess, seq int64, del bool) (*wire.Failure, error) {
	exec := func(rs *sqlxlate.RangeStmt) (int64, *wire.Failure, error) {
		sql, err := rs.SQL(seq, seq)
		if err != nil {
			return 0, nil, err
		}
		res, err := s.eng.ExecSQL(sql)
		if err != nil {
			ee := cdw.AsError(err)
			if cdw.Structural(ee.Code) {
				return 0, &wire.Failure{Code: uint32(ee.Code), Message: ee.Msg}, nil
			}
			j.errsET++
			msg := fmt.Sprintf("%s during stream apply on %s, row number: %d", ee.Msg, j.sd.Target.String(), seq)
			if rerr := s.recordError(j.req.ErrTableET, seq, seq, ee.Code, ee.Field, msg); rerr != nil {
				return 0, nil, rerr
			}
			return -1, nil, nil // tuple rejected; skip any second half
		}
		return res.Activity, nil, nil
	}

	if del {
		if j.sd.Delete == nil {
			return nil, fmt.Errorf("stream %s cannot apply deletes", j.req.Name)
		}
		n, f, err := exec(j.sd.Delete)
		if f != nil || err != nil {
			return f, err
		}
		if n > 0 {
			j.deleted += n
		}
		return nil, nil
	}
	var a1 int64
	if j.sd.Update != nil {
		n, f, err := exec(j.sd.Update)
		if f != nil || err != nil {
			return f, err
		}
		if n < 0 {
			return nil, nil // rejected; recorded
		}
		a1 = n
	}
	n, f, err := exec(j.sd.Insert)
	if f != nil || err != nil {
		return f, err
	}
	if n < 0 {
		return nil, nil
	}
	j.updated += a1
	j.inserted += n
	return nil, nil
}

func (s *Server) handleEndStream(c *wire.Conn, session uint32, m *wire.EndStream) error {
	j, ok := s.stream(m.StreamID)
	if !ok {
		return c.Send(session, &wire.Failure{Code: 3005, Message: "no such stream"})
	}
	s.mu.Lock()
	delete(s.strms, m.StreamID)
	s.mu.Unlock()
	for _, stage := range []sqlparse.TableName{j.upsStage, j.delStage} {
		_, _ = s.eng.Exec(&sqlparse.DropTableStmt{Table: stage, IfExists: true})
	}
	return c.Send(session, &wire.StreamDone{
		StreamID:  j.id,
		Watermark: uint64(j.watermark),
		Inserted:  uint64(j.inserted),
		Updated:   uint64(j.updated),
		Deleted:   uint64(j.deleted),
		ErrorsET:  uint64(j.errsET),
		Replayed:  uint64(j.replayed),
	})
}
