package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"etlvirt/internal/etlscript"
	"etlvirt/internal/scrub"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// cdcWorkload is cdc_stream: independent change streams, each on its own
// connection and table, fed on a fixed schedule regardless of how fast the
// virtualizer commits (open loop), then flat out (closed loop) to find
// capacity.
type cdcWorkload struct {
	sz      sizes
	seed    int64
	corrupt bool
	st      *stack
	windows int // windows run so far; names streams and seeds their deltas
	sample  *cdcStreamInput
}

func (w *cdcWorkload) stack() *stack { return w.st }

// clientOf is never asked about a stream: streams file no job report.
func (w *cdcWorkload) clientOf(string) int { return -1 }

func (w *cdcWorkload) close() {
	if w.st != nil {
		w.st.close()
	}
}

// cdcPhases lays the three phases over a window of length d.
func (w *cdcWorkload) cdcPhases(d time.Duration) []cdcPhase {
	share := func(s float64) time.Duration { return time.Duration(float64(d) * s) }
	return []cdcPhase{
		{Dur: share(cdcLoShare), Rate: w.sz.CDCLoRate},
		{Dur: share(cdcHiShare), Rate: w.sz.CDCHiRate},
		{Dur: share(cdcSatShare)},
	}
}

func (w *cdcWorkload) setup(seed int64, corrupt bool) error {
	w.seed, w.corrupt = seed, corrupt
	st, err := newStack(w.sz.CDCCredits)
	if err != nil {
		return err
	}
	w.st = st

	// Reference run: a short delta file through the legacy client's own
	// stream block, on the reference engine and on the virtualizer.
	rng := rand.New(rand.NewSource(seed))
	refRows := w.sz.ReferenceRows / 4
	ref := genCDC(rng, "bench_ref", "BENCH.REFS", refRows,
		[]cdcPhase{{Dur: time.Second, Rate: float64(refRows)}}, 0)
	script, files := ref.legacyScript()
	parsed, err := etlscript.Parse(script)
	if err != nil {
		return fmt.Errorf("parsing reference stream script: %w", err)
	}
	want := ref.oracleAfter(len(ref.Deltas))
	et := ref.Table + "_ET"
	tables := []scrub.Table{{Name: ref.Table, ErrTables: []string{et}}}
	expect := []scrub.Expectation{{Table: ref.Table, Rows: int64(len(want)),
		ErrRows: map[string]int64{strings.ToUpper(et): 0}}}
	if _, err := referenceRun(st, []string{ref.DDL}, parsed, files, tables, expect); err != nil {
		return err
	}
	w.sample = ref
	return nil
}

// legacyScript renders the stream as a script the unmodified legacy client
// can run: preload import, then a stream block over a delta file.
func (in *cdcStreamInput) legacyScript() (string, map[string][]byte) {
	var deltas []byte
	for _, d := range in.Deltas {
		deltas = append(deltas, d.Op, '|')
		deltas = append(deltas, d.Record...)
	}
	script := in.Preload.Script +
		fmt.Sprintf(".begin stream name %s tables %s errortables %s_ET latency 50;\n", in.Name, in.Table, in.Table) +
		".dml label App;\n" + in.DML + ";\n" +
		fmt.Sprintf(".stream infile deltas.txt format vartext '|' layout %s apply App;\n.end stream;\n", in.Layout.Name)
	return script, map[string][]byte{bulkInfile: in.Preload.Data, "deltas.txt": deltas}
}

// cdcStreamRun is the live state of one stream during a window.
type cdcStreamRun struct {
	in   *cdcStreamInput
	conn *wire.Conn
	id   uint64
	hint int

	sent      int // deltas sent so far
	committed int // deltas covered by the last CommittedSeq
	// commitAt[i] is when the first ack covering delta i arrived, as an
	// offset from the window start; sendAt[i] when its frame was sent.
	commitAt, sendAt []time.Duration
	frames           []opRecord
	committedAtSat   int // deltas committed when phase sat began
	commits          int // acks that advanced the committed sequence
	backlogMidHi     int
	backlogEndHi     int
	finalHint        int
	done             *wire.StreamDone
}

func (w *cdcWorkload) window(ctx context.Context, d time.Duration, rec *recorder) (*windowResult, error) {
	w.windows++
	phases := w.cdcPhases(d)
	loEnd := phases[0].Dur
	hiEnd := loEnd + phases[1].Dur
	satEnd := hiEnd + phases[2].Dur

	// Untimed: fresh tables, preload through the import path, open streams.
	runs := make([]*cdcStreamRun, w.sz.CDCStreams)
	for s := range runs {
		rng := rand.New(rand.NewSource(w.seed*1000 + int64(w.windows)*10 + int64(s)))
		in := genCDC(rng, fmt.Sprintf("bench_cdc_w%d_s%d", w.windows, s), fmt.Sprintf("BENCH.S%d", s),
			w.sz.CDCPreloadKeys, phases, int(w.sz.CDCSatDeltasPerSec*phases[2].Dur.Seconds()))
		if _, err := w.st.exec("DROP TABLE IF EXISTS " + in.Table); err != nil {
			return nil, err
		}
		if _, err := w.st.exec(in.DDL); err != nil {
			return nil, err
		}
		pre, err := etlscript.Parse(in.Preload.Script)
		if err != nil {
			return nil, fmt.Errorf("parsing preload script: %w", err)
		}
		if _, _, err := runScript(w.st.nodeAddr, pre, map[string][]byte{bulkInfile: in.Preload.Data}); err != nil {
			return nil, fmt.Errorf("preloading %s: %w", in.Table, err)
		}
		run, err := openStream(w.st.nodeAddr, in, w.sz.CDCLatencyMS)
		if err != nil {
			for _, opened := range runs[:s] {
				opened.conn.Close()
			}
			return nil, err
		}
		runs[s] = run
	}

	res := &windowResult{Gen: map[string]float64{}, StreamClient: map[uint64]int{}}
	for s, run := range runs {
		res.StreamClient[run.id] = s
	}
	timed, err := beginTimed(w.st, rec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(runs))
	for s, run := range runs {
		wg.Add(1)
		go func(s int, run *cdcStreamRun) {
			defer wg.Done()
			if err := run.feed(ctx, timed.start, loEnd, hiEnd, satEnd, rec, s); err != nil {
				errs[s] = err
				cancel()
			}
		}(s, run)
	}
	wg.Wait()
	if err := timed.end(res); err != nil {
		return nil, err
	}

	// Untimed: close the streams (commits the buffered tail) and check.
	var lateMS, freshLoMS []float64
	var satRows, backlogMid, backlogEnd, offered, commits int64
	for s, run := range runs {
		res.Ops = append(res.Ops, run.frames...)
		res.Attempted += int64(run.sent)
		if errs[s] != nil {
			res.Failed += int64(run.sent - run.committed)
			res.fail(fmt.Sprintf("stream %d: %v", s, errs[s]))
			run.conn.Close()
			continue
		}
		if err := run.end(); err != nil {
			res.Failed += int64(run.sent - run.committed)
			res.fail(fmt.Sprintf("stream %d: %v", s, err))
			continue
		}
		if bad := w.checkStream(run, s == 0 && w.corrupt); len(bad) > 0 {
			res.Failed += int64(len(bad))
			for _, msg := range bad {
				res.fail(fmt.Sprintf("stream %d: %s", s, msg))
			}
		}
		for i := 0; i < run.committed; i++ {
			due := run.in.Deltas[i].Due
			fresh := ms(run.commitAt[i] - due)
			switch {
			case due < loEnd:
				freshLoMS = append(freshLoMS, fresh)
				lateMS = append(lateMS, ms(run.sendAt[i]-due))
			case due < hiEnd:
				res.LatencyMS = append(res.LatencyMS, fresh)
				lateMS = append(lateMS, ms(run.sendAt[i]-due))
			}
		}
		for _, dl := range run.in.Deltas {
			if dl.Due < hiEnd {
				offered++
			}
		}
		res.Rows += int64(run.committed)
		satRows += int64(run.committed - run.committedAtSat)
		backlogMid += int64(run.backlogMidHi)
		backlogEnd += int64(run.backlogEndHi)
		commits += int64(run.commits)
		res.Gen["stream.final_hint"] += float64(run.finalHint) / float64(len(runs))
		res.Gen["stream.replayed"] += float64(run.done.Replayed)
	}
	res.Gen["stream.commits"] = float64(commits)
	res.Gen["stream.batch_rows_mean"] = ratio(float64(res.Rows), float64(commits))
	res.SatRows, res.SatDur = satRows, phases[2].Dur
	res.Gen["gen.offered_rows_per_s"] = ratio(float64(offered), hiEnd.Seconds())
	res.Gen["gen.backlog_mid"] = float64(backlogMid)
	res.Gen["gen.backlog_end"] = float64(backlogEnd)
	res.Gen["gen.late_p95_ms"], _ = percentile(lateMS, 0.95)
	res.Gen["gen.fresh_lo_p50_ms"], _ = percentile(freshLoMS, 0.5)
	res.Gen["gen.fresh_lo_p95_ms"], _ = percentile(freshLoMS, 0.95)
	return res, nil
}

// logon dials the node and logs on, as the legacy client does before any job.
func logon(addr string) (*wire.Conn, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dialling node: %w", err)
	}
	if err := c.Send(0, &wire.Logon{Host: "host", User: "bench", Password: "bench"}); err != nil {
		c.Close()
		return nil, fmt.Errorf("logon: %w", err)
	}
	if _, err := c.Expect(wire.KindLogonOK); err != nil {
		c.Close()
		return nil, fmt.Errorf("logon: %w", err)
	}
	return c, nil
}

func openStream(addr string, in *cdcStreamInput, latencyMS int) (*cdcStreamRun, error) {
	c, err := logon(addr)
	if err != nil {
		return nil, err
	}
	begin := &wire.BeginStream{
		Name: in.Name, Table: in.Table, ErrTableET: in.Table + "_ET",
		Layout: in.Layout, Format: wire.FormatVartext, Delim: '|',
		SQL: in.DML, LatencyTargetMS: uint32(latencyMS),
	}
	if err := c.Send(0, begin); err != nil {
		c.Close()
		return nil, fmt.Errorf("begin stream: %w", err)
	}
	m, err := c.Expect(wire.KindStreamOK)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("begin stream %s: %w", in.Name, err)
	}
	ok := m.(*wire.StreamOK)
	n := len(in.Deltas)
	return &cdcStreamRun{in: in, conn: c, id: ok.StreamID, hint: int(ok.BatchHint),
		commitAt: make([]time.Duration, n), sendAt: make([]time.Duration, n)}, nil
}

// feed sends the stream's deltas. Through lo and hi a delta is sent no
// earlier than its due time, and deltas that come due while a frame awaits
// its ack ride the next frame (up to the server's batch hint, as the legacy
// client frames them). In sat every remaining delta is due at once. Feeding
// stops at satEnd; deltas not yet sent are dropped.
func (r *cdcStreamRun) feed(ctx context.Context, t0 time.Time, loEnd, hiEnd, satEnd time.Duration,
	rec *recorder, streamNo int) error {
	deltas := r.in.Deltas
	midHi := loEnd + (hiEnd-loEnd)/2
	sawMid, sawHiEnd, sawSat := false, false, false
	var payload []byte
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for r.sent < len(deltas) {
		now := time.Since(t0)
		if !sawMid && now >= midHi {
			sawMid, r.backlogMidHi = true, r.dueBefore(midHi)-r.committed
		}
		if !sawHiEnd && now >= hiEnd {
			sawHiEnd, r.backlogEndHi = true, r.dueBefore(hiEnd)-r.committed
		}
		if !sawSat && now >= hiEnd {
			sawSat, r.committedAtSat = true, r.committed
		}
		if now >= satEnd {
			break
		}
		if wait := deltas[r.sent].Due - now; wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		n := r.dueBy(now) - r.sent
		if r.hint > 0 && n > r.hint {
			n = r.hint
		}
		payload = payload[:0]
		for _, d := range deltas[r.sent : r.sent+n] {
			payload = stream.AppendDelta(payload, stream.Op(d.Op), d.Record)
		}
		frame := &wire.DeltaFrame{StreamID: r.id, FirstSeq: uint64(r.sent + 1), Count: uint32(n), Payload: payload}
		op := opRecord{ID: rec.newID(), Client: streamNo, Start: time.Now(), Rows: int64(n)}
		sendAt := op.Start.Sub(t0)
		if err := r.conn.Send(0, frame); err != nil {
			return fmt.Errorf("sending frame at seq %d: %w", frame.FirstSeq, err)
		}
		m, err := r.conn.Expect(wire.KindDeltaAck)
		if err != nil {
			return fmt.Errorf("frame at seq %d: %w", frame.FirstSeq, err)
		}
		op.End = time.Now()
		ack := m.(*wire.DeltaAck)
		if ack.Seq != frame.FirstSeq {
			return fmt.Errorf("ack for frame %d, sent %d", ack.Seq, frame.FirstSeq)
		}
		for i := r.sent; i < r.sent+n; i++ {
			r.sendAt[i] = sendAt
		}
		r.sent += n
		ackAt := op.End.Sub(t0)
		if int(ack.CommittedSeq) > r.committed {
			r.commits++
		}
		for r.committed < int(ack.CommittedSeq) && r.committed < r.sent {
			r.commitAt[r.committed] = ackAt
			r.committed++
		}
		if h := int(ack.BatchHint); h > 0 {
			r.hint = h
		}
		rec.add(op.ID, 0, op.ID, "op", op.Start, op.End)
		r.frames = append(r.frames, op)
	}
	if !sawHiEnd {
		r.backlogEndHi = r.dueBefore(hiEnd) - r.committed
	}
	if !sawSat {
		r.committedAtSat = r.committed
	}
	r.finalHint = r.hint
	return nil
}

// dueBy returns how many of the stream's deltas are due at or before t.
func (r *cdcStreamRun) dueBy(t time.Duration) int {
	return sort.Search(len(r.in.Deltas), func(i int) bool { return r.in.Deltas[i].Due > t })
}

// dueBefore returns how many deltas are due strictly before t, which at a
// phase boundary excludes the next phase's first deltas.
func (r *cdcStreamRun) dueBefore(t time.Duration) int {
	return sort.Search(len(r.in.Deltas), func(i int) bool { return r.in.Deltas[i].Due >= t })
}

// end closes the stream, which commits whatever tail the server buffered.
func (r *cdcStreamRun) end() error {
	defer r.conn.Close()
	if err := r.conn.Send(0, &wire.EndStream{StreamID: r.id}); err != nil {
		return fmt.Errorf("ending stream: %w", err)
	}
	m, err := r.conn.Expect(wire.KindStreamDone)
	if err != nil {
		return fmt.Errorf("ending stream %s: %w", r.in.Name, err)
	}
	r.done = m.(*wire.StreamDone)
	if err := r.conn.Send(0, &wire.Logoff{}); err != nil {
		return fmt.Errorf("stream logoff: %w", err)
	}
	return nil
}

// checkStream compares the target with the generator's last-image-per-key
// oracle over exactly the deltas sent, and the durable watermark with their
// count. It returns one message per discrepancy (capped).
func (w *cdcWorkload) checkStream(r *cdcStreamRun, corrupt bool) []string {
	var bad []string
	wantMark := int64(r.sent)
	if corrupt {
		wantMark++
	}
	if int64(r.done.Watermark) != wantMark {
		bad = append(bad, fmt.Sprintf("watermark %d, generator sent %d deltas", r.done.Watermark, wantMark))
	}
	if r.done.ErrorsET != 0 {
		bad = append(bad, fmt.Sprintf("%d deltas landed in the error table, generator made none bad", r.done.ErrorsET))
	}
	want := r.in.oracleAfter(r.sent)
	res, err := w.st.exec("SELECT ID, NAME, DT FROM " + r.in.Table)
	if err != nil {
		return append(bad, err.Error())
	}
	if len(res.Rows) != len(want) {
		bad = append(bad, fmt.Sprintf("%s holds %d rows, oracle expects %d", r.in.Table, len(res.Rows), len(want)))
	}
	for _, row := range res.Rows {
		id := row[0].Render()
		exp, ok := want[id]
		if !ok || exp.Name != row[1].Render() || exp.Date != row[2].Render() {
			bad = append(bad, fmt.Sprintf("%s row %s is (%s, %s), oracle expects (%s, %s) present=%v",
				r.in.Table, id, row[1].Render(), row[2].Render(), exp.Name, exp.Date, ok))
			if len(bad) >= maxFailureMessages {
				break
			}
		}
	}
	return bad
}

func (w *cdcWorkload) replayInput() *replayInput {
	in := w.sample
	var data []byte
	for _, d := range in.Deltas {
		if d.Op != 'D' {
			data = append(data, d.Record...)
		}
	}
	return &replayInput{
		Table: "BENCH.REPLAY", DDL: "CREATE TABLE BENCH.REPLAY (ID VARCHAR(8) NOT NULL, NAME VARCHAR(40), DT DATE, PRIMARY KEY (ID))",
		DML: cdcDML("BENCH.REPLAY"), Layout: in.Layout, Data: data,
	}
}
