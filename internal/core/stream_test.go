package core_test

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/ltype"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

const streamApplySQL = `insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`

func custLayout() *ltype.Layout {
	return &ltype.Layout{Name: "CustLayout", Fields: []ltype.Field{
		{Name: "CUST_ID", Type: ltype.VarChar(5)},
		{Name: "CUST_NAME", Type: ltype.VarChar(50)},
		{Name: "JOIN_DATE", Type: ltype.VarChar(10)},
	}}
}

// dialStream opens a raw wire connection and completes the logon handshake.
func dialStream(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(nc)
	if err := c.Send(0, &wire.Logon{User: "u", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.LogonOK); !ok {
		t.Fatalf("logon reply = %T", m)
	}
	return c
}

// beginStream opens a CDC stream over c and returns the server's StreamOK.
func beginStream(t *testing.T, c *wire.Conn, name, et string) *wire.StreamOK {
	t.Helper()
	if err := c.Send(1, &wire.BeginStream{
		Name:       name,
		Table:      "PROD.CUSTOMER",
		ErrTableET: et,
		Layout:     custLayout(),
		Format:     wire.FormatVartext,
		Delim:      '|',
		SQL:        streamApplySQL,
	}); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ok, is := m.(*wire.StreamOK)
	if !is {
		t.Fatalf("BeginStream reply = %#v", m)
	}
	return ok
}

// vtDelta appends one vartext delta (op marker + pipe-joined line).
func vtDelta(dst []byte, op stream.Op, fields ...string) []byte {
	return stream.AppendDelta(dst, op, []byte(strings.Join(fields, "|")+"\n"))
}

// sendFrame sends one delta frame and returns its ack.
func sendFrame(t *testing.T, c *wire.Conn, streamID, firstSeq uint64, count int, payload []byte) *wire.DeltaAck {
	t.Helper()
	if err := c.Send(1, &wire.DeltaFrame{
		StreamID: streamID, FirstSeq: firstSeq, Count: uint32(count), Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, is := m.(*wire.DeltaAck)
	if !is {
		t.Fatalf("DeltaFrame reply = %#v", m)
	}
	return ack
}

// endStream closes the stream and returns its StreamDone summary.
func endStream(t *testing.T, c *wire.Conn, streamID uint64) *wire.StreamDone {
	t.Helper()
	if err := c.Send(1, &wire.EndStream{StreamID: streamID}); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	done, is := m.(*wire.StreamDone)
	if !is {
		t.Fatalf("EndStream reply = %#v", m)
	}
	return done
}

// TestStreamEndToEnd drives one micro-batch of interleaved insert / update /
// delete deltas through a streaming session, including two images of the
// same not-yet-present key in one upsert run (the insert-guard hazard the
// duplicate probe must catch) and an apply-time transformation error.
func TestStreamEndToEnd(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)

	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_cdc", "PROD.CUSTOMER_STREAM_ET")
	if ok.ResumeSeq != 0 {
		t.Fatalf("fresh stream ResumeSeq = %d", ok.ResumeSeq)
	}

	var p []byte
	p = vtDelta(p, stream.OpInsert, "100", "Alice", "2024-01-01")
	p = vtDelta(p, stream.OpInsert, "200", "Bob", "2024-01-02")
	// Second image of key 100 in the same upsert run: the set-oriented
	// guarded insert alone would double-insert it; the duplicate probe must
	// split the run so the update half applies in sequence order.
	p = vtDelta(p, stream.OpUpdate, "100", "Alicia", "2024-01-03")
	p = vtDelta(p, stream.OpDelete, "200", "Bob", "2024-01-02")
	p = vtDelta(p, stream.OpInsert, "300", "Carol", "xxxx") // apply-time cast error -> ET
	p = vtDelta(p, stream.OpInsert, "400", "Dave", "2024-01-04")
	ack := sendFrame(t, c, ok.StreamID, 1, 6, p)
	if ack.CommittedSeq != 0 {
		t.Errorf("sub-hint frame committed early: %d", ack.CommittedSeq)
	}

	done := endStream(t, c, ok.StreamID)
	if done.Watermark != 6 {
		t.Errorf("watermark = %d, want 6", done.Watermark)
	}
	if done.Inserted != 3 || done.Updated != 1 || done.Deleted != 1 {
		t.Errorf("activity I/U/D = %d/%d/%d, want 3/1/1", done.Inserted, done.Updated, done.Deleted)
	}
	if done.ErrorsET != 1 {
		t.Errorf("ErrorsET = %d, want 1", done.ErrorsET)
	}

	res := mustEng(t, st.eng, "SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID")
	if len(res.Rows) != 2 {
		t.Fatalf("target rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0].S != "100" || res.Rows[0][1].S != "Alicia" {
		t.Errorf("row0 = %v (last image of key 100 must win)", res.Rows[0])
	}
	if res.Rows[1][0].S != "400" || res.Rows[1][1].S != "Dave" {
		t.Errorf("row1 = %v", res.Rows[1])
	}
	et := mustEng(t, st.eng, "SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_STREAM_ET")
	if len(et.Rows) != 1 || et.Rows[0][0].I != 5 {
		t.Errorf("ET rows = %v, want one row for seq 5", et.Rows)
	}
}

// TestStreamControllerAdapts sustains a continuous delta workload and
// asserts the adaptive controller demonstrably moves the batch hint: commits
// far below the 2s default target must grow the micro-batch. Also checks the
// stream surfaces on /jobs/active and /metrics while running.
func TestStreamControllerAdapts(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_adapt", "")
	first := ok.BatchHint

	seq := uint64(1)
	var last *wire.DeltaAck
	for f := 0; f < 10; f++ {
		var p []byte
		const rows = 200
		for i := 0; i < rows; i++ {
			date := "2024-01-01"
			if f == 2 && i == 7 {
				date = "2024-99-99" // one apply-time reject
			}
			p = vtDelta(p, stream.OpInsert,
				fmt.Sprintf("%05d", seq+uint64(i)), "Name", date)
		}
		last = sendFrame(t, c, ok.StreamID, seq, rows, p)
		seq += rows

		if f == 5 {
			// Mid-stream: the session must be visible with live progress.
			jobs := st.node.ActiveJobs()
			var found bool
			for _, j := range jobs {
				if j.Kind == "stream" && j.Target == "PROD.CUSTOMER" && j.Deltas > 0 {
					found = true
					if j.BatchHint <= 0 {
						t.Errorf("active stream batch hint = %d", j.BatchHint)
					}
				}
			}
			if !found {
				t.Errorf("no stream entry in ActiveJobs: %+v", jobs)
			}
			_, body := httpGet(t, dbgAddr, "/metrics")
			for _, want := range []string{
				"etlvirt_stream_sessions_active 1",
				"etlvirt_stream_batches_total",
				"etlvirt_stream_commit_seconds",
				"etlvirt_stream_ctrl_grow_total",
			} {
				if !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			// The last commit's apply cost is on /streams.
			_, body = httpGet(t, dbgAddr, "/streams")
			var streams []core.StreamStatus
			if err := json.Unmarshal([]byte(body), &streams); err != nil {
				t.Fatalf("/streams JSON: %v\n%s", err, body)
			}
			if len(streams) != 1 || streams[0].LastStmts <= 0 || !strings.Contains(body, `"last_commit_located":`) {
				t.Errorf("/streams lacks the last commit's statements and located images: %s", body)
			}
		}
	}
	if last.CommittedSeq == 0 {
		t.Fatalf("no micro-batch committed after %d deltas", seq-1)
	}
	if last.BatchHint <= first {
		t.Errorf("controller did not grow the batch: hint %d -> %d", first, last.BatchHint)
	}

	done := endStream(t, c, ok.StreamID)
	if done.Watermark != seq-1 {
		t.Errorf("watermark = %d, want %d", done.Watermark, seq-1)
	}
	if done.Inserted != seq-2 {
		t.Errorf("inserted = %d, want %d", done.Inserted, seq-2)
	}

	// Every batch_commit event carries its commit's statement count and
	// located images; together they located the one reject. It also carries
	// the controller's decision: the grows that raised the hint, and the
	// hint the client last saw.
	var commits, located, grows int64
	var sawHint bool
	for _, e := range st.node.Events().Events(0) {
		if e.Type != "batch_commit" || e.Job != ok.StreamID {
			continue
		}
		commits++
		stmts, ok1 := e.Attrs["cdw_stmts"].(int64)
		n, ok2 := e.Attrs["located"].(int64)
		if !ok1 || !ok2 || stmts <= 0 {
			t.Errorf("batch_commit attrs %v lack cdw_stmts/located", e.Attrs)
		}
		located += n
		action, ok3 := e.Attrs["action"].(string)
		next, ok4 := e.Attrs["next_batch_rows"].(int)
		if !ok3 || !ok4 || next <= 0 ||
			(action != "grow" && action != "shrink" && action != "hold") {
			t.Errorf("batch_commit attrs %v lack action/next_batch_rows", e.Attrs)
		}
		if action == "grow" {
			grows++
		}
		sawHint = sawHint || uint32(next) == last.BatchHint
	}
	if commits == 0 || located != 1 {
		t.Errorf("%d batch_commit events located %d images, want 1", commits, located)
	}
	if grows == 0 || !sawHint {
		t.Errorf("%d batch_commit events: %d grows, hint %d seen %v; want a grow and the client's last hint",
			commits, grows, last.BatchHint, sawHint)
	}
}

// TestStreamResumeNoDoubleApply kills a stream with a committed batch plus a
// buffered uncommitted tail, then resumes under the same name: the server
// must advertise the durable watermark, drop the full replay below it, and
// end with every key applied exactly once.
func TestStreamResumeNoDoubleApply(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)

	mkFrame := func(first, count int) []byte {
		var p []byte
		for i := 0; i < count; i++ {
			p = vtDelta(p, stream.OpInsert,
				fmt.Sprintf("%05d", first+i), "Name", "2024-01-01")
		}
		return p
	}

	// Incarnation 1: 64 deltas commit (default initial hint), 10 more stay
	// buffered, then the connection dies without EndStream.
	c1 := dialStream(t, st.addr)
	ok1 := beginStream(t, c1, "cust_resume", "")
	ack := sendFrame(t, c1, ok1.StreamID, 1, 64, mkFrame(1, 64))
	if ack.CommittedSeq != 64 {
		t.Fatalf("first batch CommittedSeq = %d, want 64", ack.CommittedSeq)
	}
	ack = sendFrame(t, c1, ok1.StreamID, 65, 10, mkFrame(65, 10))
	if ack.CommittedSeq != 64 {
		t.Fatalf("buffered tail advanced the watermark: %d", ack.CommittedSeq)
	}
	c1.Close() // abort: the 10 buffered deltas are discarded

	// The abort runs on the connection goroutine; wait for deregistration.
	waitStreamsIdle(t, st.node)

	// Incarnation 2: resume under the same name; replay everything from 1.
	c2 := dialStream(t, st.addr)
	defer c2.Close()
	ok2 := beginStream(t, c2, "cust_resume", "")
	if ok2.ResumeSeq != 64 {
		t.Fatalf("ResumeSeq = %d, want 64", ok2.ResumeSeq)
	}
	sendFrame(t, c2, ok2.StreamID, 1, 74, mkFrame(1, 74))
	done := endStream(t, c2, ok2.StreamID)
	if done.Watermark != 74 {
		t.Errorf("watermark = %d, want 74", done.Watermark)
	}
	if done.Replayed != 64 {
		t.Errorf("replayed = %d, want 64", done.Replayed)
	}
	if done.Inserted != 10 {
		t.Errorf("resumed incarnation inserted = %d, want 10 (no double-apply)", done.Inserted)
	}

	res := mustEng(t, st.eng, "SELECT count(*) FROM PROD.CUSTOMER")
	if res.Rows[0][0].I != 74 {
		t.Errorf("target rows = %d, want 74", res.Rows[0][0].I)
	}
	dup := mustEng(t, st.eng, `SELECT count(*) FROM (
		SELECT 1 AS one FROM PROD.CUSTOMER GROUP BY CUST_ID HAVING count(*) > 1) d`)
	if dup.Rows[0][0].I != 0 {
		t.Errorf("%d keys double-applied", dup.Rows[0][0].I)
	}
}

// waitStreamsIdle waits until no streaming session is registered on n.
func waitStreamsIdle(t *testing.T, n *core.Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		idle := true
		for _, j := range n.ActiveJobs() {
			if j.Kind == "stream" {
				idle = false
			}
		}
		if idle {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("streams still registered after 5s")
}

// TestStreamSessionCreditLeak is the close-path audit regression: open and
// kill 100 streaming sessions, each with an uncommitted micro-batch when its
// connection drops, and assert the CreditManager gauge returns to baseline —
// a frame's credit ends with the frame, so neither the open batch nor the
// abort may leave pool capacity behind.
func TestStreamSessionCreditLeak(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	base := st.node.Credits()

	for i := 0; i < 100; i++ {
		c := dialStream(t, st.addr)
		ok := beginStream(t, c, fmt.Sprintf("leak_%d", i), "")
		// One sub-hint frame: it leaves the batch open and uncommitted.
		p := vtDelta(nil, stream.OpInsert, fmt.Sprintf("%05d", i), "Name", "2024-01-01")
		ack := sendFrame(t, c, ok.StreamID, uint64(i+1), 1, p)
		if ack.CommittedSeq != 0 {
			t.Fatalf("session %d: unexpected commit %d", i, ack.CommittedSeq)
		}
		c.Close() // kill without EndStream
	}

	waitStreamsIdle(t, st.node)
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur := st.node.Credits()
		if cur.Available == base.Available && cur.InFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("credits leaked after 100 killed sessions: baseline %+v, now %+v", base, cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cdcStreamScript is an etlscript stream block over the Example 2.1 layout.
func cdcStreamScript(name string) string {
	return fmt.Sprintf(`
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin stream name %s tables PROD.CUSTOMER
	errortables PROD.CUSTOMER_ET latency 100;
.dml label Apply;
insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
.stream infile deltas.txt format vartext '|' layout CustLayout apply Apply;
.end stream;
`, name)
}

const cdcDeltaFile = `I|100|Alice|2012-01-01
I|200|Bob|2012-02-02
U|100|Alicia|2012-01-01
D|200|Bob|2012-02-02
I|300|Carol|xxxx
I|400|Dave|2013-03-03
`

// TestStreamScript drives a CDC stream through the full stack — etlscript
// parser, etlclient streaming loop, wire protocol, stream job — and then
// re-runs the identical script to prove client-side resume: every delta is
// at or below the durable watermark, so nothing is retransmitted and
// nothing double-applies.
func TestStreamScript(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)

	files := map[string]string{"deltas.txt": cdcDeltaFile}
	res := runScript(t, st.addr, cdcStreamScript("script_cdc"), files, etlclient.Options{})
	if len(res.Streams) != 1 {
		t.Fatalf("streams: %+v", res)
	}
	sr := res.Streams[0]
	if sr.DeltasSent != 6 || sr.Skipped != 0 || sr.Watermark != 6 {
		t.Errorf("first run: %+v", sr)
	}
	if sr.Inserted != 3 || sr.Updated != 1 || sr.Deleted != 1 || sr.ErrorsET != 1 {
		t.Errorf("first run counters: %+v", sr)
	}
	rows := mustEng(t, st.eng, "SELECT cust_id, cust_name FROM PROD.CUSTOMER ORDER BY cust_id").Rows
	if len(rows) != 2 || rows[0][0].S != "100" || rows[0][1].S != "Alicia" ||
		rows[1][0].S != "400" || rows[1][1].S != "Dave" {
		t.Errorf("target rows: %v", rows)
	}

	// Identical re-run: the stream name resolves to watermark 6, the client
	// skips everything, and the CDW state is untouched.
	res = runScript(t, st.addr, cdcStreamScript("script_cdc"), files, etlclient.Options{})
	sr = res.Streams[0]
	if sr.Skipped != 6 || sr.DeltasSent != 0 || sr.Frames != 0 || sr.Watermark != 6 {
		t.Errorf("resume run: %+v", sr)
	}
	if sr.Inserted != 0 || sr.Updated != 0 || sr.Deleted != 0 {
		t.Errorf("resume run applied deltas: %+v", sr)
	}
	rows = mustEng(t, st.eng, "SELECT count(*) FROM PROD.CUSTOMER").Rows
	if rows[0][0].I != 2 {
		t.Errorf("target row count after resume: %d", rows[0][0].I)
	}
}

// TestStreamCommitStagesOnce pins the shape of a stream commit: upsert and
// delete images of one micro-batch share one spool object, one staging
// table and one COPY. Two mixed I/U/D batches must record exactly one upload
// span and one copy span each, and while the stream is open the CDW must
// hold exactly one staging table for it, etl_stage.stream_<id>.
func TestStreamCommitStagesOnce(t *testing.T) {
	// Pin the hint so each 64-delta frame below cuts exactly one batch.
	st := startStack(t, core.Config{StreamMinBatch: 64, StreamMaxBatch: 64})
	mustEng(t, st.eng, customerDDL)

	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_shape", "")

	// mixed builds one 64-delta frame: inserts of keys [ins, ins+nIns),
	// updates of [upd, upd+n), deletes of [del, del+n).
	mixed := func(ins, nIns, upd, del, n int) []byte {
		var p []byte
		for i := ins; i < ins+nIns; i++ {
			p = vtDelta(p, stream.OpInsert, fmt.Sprintf("%05d", i), "Name", "2024-01-01")
		}
		for i := upd; i < upd+n; i++ {
			p = vtDelta(p, stream.OpUpdate, fmt.Sprintf("%05d", i), "Renamed", "2024-02-02")
		}
		for i := del; i < del+n; i++ {
			p = vtDelta(p, stream.OpDelete, fmt.Sprintf("%05d", i), "Name", "2024-01-01")
		}
		return p
	}
	ack := sendFrame(t, c, ok.StreamID, 1, 64, mixed(0, 40, 0, 12, 12))
	if ack.CommittedSeq != 64 {
		t.Fatalf("first batch CommittedSeq = %d, want 64", ack.CommittedSeq)
	}
	var stages []string
	for _, name := range st.eng.Catalog.Names() {
		if strings.HasPrefix(name, "etl_stage.stream_") && name != "etl_stage.stream_checkpoints" {
			stages = append(stages, name)
		}
	}
	if want := fmt.Sprintf("etl_stage.stream_%d", ok.StreamID); len(stages) != 1 || stages[0] != want {
		t.Errorf("open stream's staging tables = %v, want [%s]", stages, want)
	}
	ack = sendFrame(t, c, ok.StreamID, 65, 64, mixed(40, 32, 24, 40, 16))
	if ack.CommittedSeq != 128 {
		t.Fatalf("second batch CommittedSeq = %d, want 128", ack.CommittedSeq)
	}
	done := endStream(t, c, ok.StreamID)
	if done.Inserted != 72 || done.Updated != 28 || done.Deleted != 28 {
		t.Errorf("activity I/U/D = %d/%d/%d, want 72/28/28", done.Inserted, done.Updated, done.Deleted)
	}

	commits, _, _ := spanTotals(t, st.node, ok.StreamID, "stream_commit")
	if commits != 2 {
		t.Fatalf("stream_commit spans = %d, want 2", commits)
	}
	for _, stage := range []string{"upload", "copy"} {
		if n, _, _ := spanTotals(t, st.node, ok.StreamID, stage); n != commits {
			t.Errorf("%s spans = %d over %d commits, want one per commit", stage, n, commits)
		}
	}
}

// TestStreamSameKeyAcrossRuns sends one micro-batch in which the same key
// changes class several times — I(k) D(k) I(k) U(k) — plus a delete of a
// pre-existing key k2 followed by an upsert of k2 whose date fails the
// apply-time cast. Every op run ranges over the one shared staging table,
// so each must see only its own images: k ends at its last image, k2 stays
// deleted, and the rejected image is recorded under its own sequence.
func TestStreamSameKeyAcrossRuns(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	mustEng(t, st.eng, "INSERT INTO PROD.CUSTOMER VALUES ('200', 'Bob', DATE '2020-01-01')")

	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_rekey", "PROD.CUSTOMER_REKEY_ET")

	var p []byte
	p = vtDelta(p, stream.OpInsert, "100", "Ann", "2024-01-01")
	p = vtDelta(p, stream.OpDelete, "100", "Ann", "2024-01-01")
	p = vtDelta(p, stream.OpInsert, "100", "Anna", "2024-01-02")
	p = vtDelta(p, stream.OpUpdate, "100", "Annie", "2024-01-03")
	p = vtDelta(p, stream.OpDelete, "200", "Bob", "2020-01-01")
	p = vtDelta(p, stream.OpUpdate, "200", "Bobby", "2024-99-99") // apply-time cast error -> ET
	if ack := sendFrame(t, c, ok.StreamID, 1, 6, p); ack.CommittedSeq != 0 {
		t.Fatalf("sub-hint frame committed early: %d", ack.CommittedSeq)
	}

	done := endStream(t, c, ok.StreamID)
	if done.Watermark != 6 {
		t.Errorf("watermark = %d, want 6", done.Watermark)
	}
	if done.Inserted != 2 || done.Updated != 1 || done.Deleted != 2 {
		t.Errorf("activity I/U/D = %d/%d/%d, want 2/1/2", done.Inserted, done.Updated, done.Deleted)
	}
	if done.ErrorsET != 1 {
		t.Errorf("ErrorsET = %d, want 1", done.ErrorsET)
	}
	res := mustEng(t, st.eng, "SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "100" || res.Rows[0][1].S != "Annie" {
		t.Errorf("target rows = %v, want only [100 Annie]", res.Rows)
	}
	et := mustEng(t, st.eng, "SELECT SEQNO FROM PROD.CUSTOMER_REKEY_ET")
	if len(et.Rows) != 1 || et.Rows[0][0].I != 6 {
		t.Errorf("ET rows = %v, want one row for seq 6", et.Rows)
	}
}

// TestStreamCommitConstantStatements commits one 400-delta micro-batch over
// 40 keys, half of them already in the target, with a delete every tenth
// delta. The commit must cost a constant number of CDW statements, counted
// at the engine: staging reset (2) and COPY, the error-table clear, the
// net-effect read, DELETE, UPDATE and INSERT, and the checkpoint. A
// statement set per same-class run of deltas would need more than 100.
func TestStreamCommitConstantStatements(t *testing.T) {
	const deltas, keys = 400, 40
	st := startStack(t, core.Config{StreamMinBatch: deltas, StreamMaxBatch: deltas})
	mustEng(t, st.eng, customerDDL)

	// Expected end state and counts, tuple at a time.
	names := map[string]string{}
	for k := 0; k < keys/2; k++ {
		key := fmt.Sprintf("K%03d", k)
		names[key] = "pre"
		mustEng(t, st.eng, fmt.Sprintf("INSERT INTO PROD.CUSTOMER VALUES ('%s', 'pre', DATE '2020-01-01')", key))
	}
	var p []byte
	var ins, upd, del uint64
	for d := 0; d < deltas; d++ {
		key := fmt.Sprintf("K%03d", (d*7)%keys)
		_, present := names[key]
		if d%10 == 9 {
			p = vtDelta(p, stream.OpDelete, key, "", "2024-01-01")
			if present {
				del++
			}
			delete(names, key)
			continue
		}
		name := fmt.Sprintf("N%d", d)
		p = vtDelta(p, stream.OpUpdate, key, name, "2024-01-01")
		if present {
			upd++
		} else {
			ins++
		}
		names[key] = name
	}

	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_const", "PROD.CUSTOMER_CONST_ET")
	before := st.eng.StmtCount()
	if ack := sendFrame(t, c, ok.StreamID, 1, deltas, p); ack.CommittedSeq != deltas {
		t.Fatalf("CommittedSeq = %d, want %d", ack.CommittedSeq, deltas)
	}
	if n := st.eng.StmtCount() - before; n > 9 {
		t.Errorf("one %d-delta commit issued %d CDW statements, want at most 9", deltas, n)
	}

	done := endStream(t, c, ok.StreamID)
	if done.Inserted != ins || done.Updated != upd || done.Deleted != del {
		t.Errorf("activity I/U/D = %d/%d/%d, want %d/%d/%d",
			done.Inserted, done.Updated, done.Deleted, ins, upd, del)
	}
	res := mustEng(t, st.eng, "SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER")
	got := map[string]string{}
	for _, r := range res.Rows {
		got[r[0].S] = r[1].S
	}
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Errorf("target = %v\nwant     %v", got, names)
	}
}
