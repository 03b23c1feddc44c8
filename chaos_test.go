package etlvirt_test

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/ltype"
	"etlvirt/internal/scrub"
	"etlvirt/internal/stream"
	"etlvirt/internal/testhost"
	"etlvirt/internal/wire"
)

// TestChaosDifferentialOracle is the differential chaos test: one unmodified
// legacy ETL script runs natively against the reference EDW (the semantic
// ground truth) and through the virtualizer against a CDW whose object store
// and network transport are riddled with injected faults. The virtualized
// run must retry its way to the exact same target table and error-table rows
// the legacy engine produces — resilience must be invisible at the data
// level. The comparison is the scrub subsystem's differential report, so the
// chaos oracle and the post-load scrub can never drift apart.
//
// The fault seed comes from ETLVIRT_FAULT_SEED (the CI chaos matrix), so a
// failure reproduces locally with the same seed.
func TestChaosDifferentialOracle(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)

	const script = `
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER
	errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label InsApply;
insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
.import infile input.txt
	format vartext '|' layout CustLayout
	apply InsApply;
.end load;
`
	const ddl = `CREATE TABLE PROD.CUSTOMER (
	CUST_ID VARCHAR(5) NOT NULL,
	CUST_NAME VARCHAR(50),
	JOIN_DATE DATE,
	PRIMARY KEY (CUST_ID))`

	// mixed input: clean rows, conversion errors, duplicate keys
	var sb strings.Builder
	for i := 1; i <= 200; i++ {
		date := fmt.Sprintf("2022-%02d-%02d", 1+i%12, 1+i%28)
		switch {
		case i%23 == 5:
			date = "not-a-date"
		case i == 190:
			// duplicate of row 11's key
			fmt.Fprintf(&sb, "11|Dup %d|%s\n", i, date)
			continue
		}
		fmt.Fprintf(&sb, "%d|Name %d|%s\n", i, i, date)
	}
	files := map[string][]byte{"input.txt": []byte(sb.String())}

	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: []string{ddl}})
	edwRes, _ := p.Run(t, p.EDWAddr, script, files)
	virtRes, _ := p.Run(t, p.NodeAddr, script, files)

	if p.Injector.Injected() == 0 {
		t.Fatal("no faults were injected; the chaos run tested nothing")
	}

	// job-level outcomes must match
	l, v := edwRes.Imports[0], virtRes.Imports[0]
	if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
		t.Errorf("outcomes differ (seed %d):\n edw:  %+v\n virt: %+v", seed, l, v)
	}

	// Data-level comparison: the differential scrub must come back clean.
	rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{{
		Name:      "PROD.CUSTOMER",
		ErrTables: []string{"PROD.CUSTOMER_ET", "PROD.CUSTOMER_UV"},
	}}})
	if !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}

// TestChaosCDCResume is the CDC differential chaos test: an interleaved
// insert/update/delete delta stream runs through the virtualizer's streaming
// path while the object store and CDW transport inject faults, and the
// client is killed twice mid-stream and resumes from the durable watermark —
// deliberately replaying everything from delta 1 each time, so the server's
// replay drop and error-table idempotence are both exercised. The oracle is
// tuple-at-a-time application on a fault-free warehouse: the streamed target
// table and error table must match it byte for byte.
//
// The fault seed comes from ETLVIRT_FAULT_SEED (the CI chaos matrix).
func TestChaosCDCResume(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)

	const ddl = `CREATE TABLE PROD.CUSTOMER (
	CUST_ID VARCHAR(5) NOT NULL,
	CUST_NAME VARCHAR(50),
	JOIN_DATE DATE,
	PRIMARY KEY (CUST_ID))`
	const applySQL = `insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`

	// Deterministic interleaved delta stream over a 40-key space: first
	// image of a key inserts, later images update, every 13th delta deletes,
	// and every 23rd carries a date that fails the apply-time cast.
	type cdcDelta struct {
		op       stream.Op
		id, name string
		date     string
	}
	const total = 160
	deltas := make([]cdcDelta, 0, total)
	live := map[string]bool{}
	for i := 1; i <= total; i++ {
		id := fmt.Sprintf("%d", 1+(i*7)%40)
		date := fmt.Sprintf("2023-%02d-%02d", 1+i%12, 1+i%28)
		if i%23 == 11 {
			date = "bad-date"
		}
		if i%13 == 0 && live[id] {
			deltas = append(deltas, cdcDelta{op: stream.OpDelete, id: id})
			live[id] = false
			continue
		}
		op := stream.OpUpdate
		if !live[id] {
			op = stream.OpInsert
		}
		deltas = append(deltas, cdcDelta{op: op, id: id, name: fmt.Sprintf("Name %d", i), date: date})
		if date != "bad-date" {
			live[id] = true
		}
	}

	// Reference: apply each delta tuple-at-a-time on a fault-free engine,
	// recording apply errors exactly as the stream's error table does.
	refEng := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	if _, err := refEng.ExecSQL(ddl); err != nil {
		t.Fatal(err)
	}
	var refET []string
	for i, d := range deltas {
		seq := i + 1
		var err error
		switch d.op {
		case stream.OpDelete:
			_, err = refEng.ExecSQL(fmt.Sprintf(
				"DELETE FROM PROD.CUSTOMER WHERE CUST_ID = '%s'", d.id))
		default:
			var res *cdw.Result
			res, err = refEng.ExecSQL(fmt.Sprintf(
				"SELECT count(*) FROM PROD.CUSTOMER WHERE CUST_ID = '%s'", d.id))
			if err != nil {
				t.Fatalf("ref probe seq %d: %v", seq, err)
			}
			if res.Rows[0][0].I > 0 {
				_, err = refEng.ExecSQL(fmt.Sprintf(
					"UPDATE PROD.CUSTOMER SET CUST_NAME = '%s', JOIN_DATE = to_date('%s', 'YYYY-MM-DD') WHERE CUST_ID = '%s'",
					d.name, d.date, d.id))
			} else {
				_, err = refEng.ExecSQL(fmt.Sprintf(
					"INSERT INTO PROD.CUSTOMER VALUES ('%s', '%s', to_date('%s', 'YYYY-MM-DD'))",
					d.id, d.name, d.date))
			}
		}
		if err != nil {
			var ce *cdw.Error
			if !errors.As(err, &ce) {
				t.Fatalf("ref apply seq %d: %v", seq, err)
			}
			refET = append(refET, fmt.Sprintf("%d|%d|%d", seq, seq, ce.Code))
		}
	}

	// Virtualized stack with faults on both infrastructure seams.
	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: []string{ddl}})

	layout := &ltype.Layout{Name: "CustLayout", Fields: []ltype.Field{
		{Name: "CUST_ID", Type: ltype.VarChar(5)},
		{Name: "CUST_NAME", Type: ltype.VarChar(50)},
		{Name: "JOIN_DATE", Type: ltype.VarChar(10)},
	}}
	dial := func() *wire.Conn {
		c, err := wire.Dial(p.NodeAddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(0, &wire.Logon{User: "u", Password: "p"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Expect(wire.KindLogonOK); err != nil {
			t.Fatal(err)
		}
		return c
	}
	begin := func(c *wire.Conn) *wire.StreamOK {
		if err := c.Send(0, &wire.BeginStream{
			Name: "chaos_cdc", Table: "PROD.CUSTOMER", ErrTableET: "PROD.CUSTOMER_ET",
			Layout: layout, Format: wire.FormatVartext, Delim: '|', SQL: applySQL,
		}); err != nil {
			t.Fatal(err)
		}
		m, err := c.Expect(wire.KindStreamOK)
		if err != nil {
			t.Fatalf("begin stream: %v", err)
		}
		return m.(*wire.StreamOK)
	}
	// sendRange frames deltas[lo..hi] (1-based, inclusive) in frames of 16
	// and returns the last ack.
	sendRange := func(c *wire.Conn, id uint64, lo, hi int) *wire.DeltaAck {
		var last *wire.DeltaAck
		for f := lo; f <= hi; f += 16 {
			end := f + 15
			if end > hi {
				end = hi
			}
			var payload []byte
			for s := f; s <= end; s++ {
				d := deltas[s-1]
				rec := fmt.Sprintf("%s|%s|%s\n", d.id, d.name, d.date)
				payload = stream.AppendDelta(payload, d.op, []byte(rec))
			}
			if err := c.Send(0, &wire.DeltaFrame{
				StreamID: id, FirstSeq: uint64(f), Count: uint32(end - f + 1), Payload: payload,
			}); err != nil {
				t.Fatal(err)
			}
			m, err := c.Expect(wire.KindDeltaAck)
			if err != nil {
				t.Fatalf("frame at seq %d: %v", f, err)
			}
			last = m.(*wire.DeltaAck)
		}
		return last
	}
	waitIdle := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			busy := false
			for _, j := range p.Node.ActiveJobs() {
				if j.Kind == "stream" {
					busy = true
				}
			}
			if !busy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("stream jobs still active after kill")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: half the stream, then kill the connection mid-batch.
	c := dial()
	ok := begin(c)
	if ok.ResumeSeq != 0 {
		t.Fatalf("fresh stream resumes at %d", ok.ResumeSeq)
	}
	sendRange(c, ok.StreamID, 1, total/2)
	c.Close()
	waitIdle()

	// Phase 2: resume, full replay from delta 1 — the ack must show the
	// durable watermark, not re-application — then kill again.
	c = dial()
	ok = begin(c)
	w1 := ok.ResumeSeq
	if w1 == 0 || w1 > uint64(total/2) {
		t.Fatalf("phase-2 resume watermark %d, want in (0, %d]", w1, total/2)
	}
	ack := sendRange(c, ok.StreamID, 1, 3*total/4)
	if ack.CommittedSeq < w1 {
		t.Fatalf("replay regressed the watermark: %d < %d", ack.CommittedSeq, w1)
	}
	c.Close()
	waitIdle()

	// Phase 3: resume again, replay everything, finish cleanly.
	c = dial()
	ok = begin(c)
	w2 := ok.ResumeSeq
	if w2 < w1 {
		t.Fatalf("watermark moved backwards across resume: %d < %d", w2, w1)
	}
	sendRange(c, ok.StreamID, 1, total)
	if err := c.Send(0, &wire.EndStream{StreamID: ok.StreamID}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Expect(wire.KindStreamDone)
	if err != nil {
		t.Fatalf("end stream: %v", err)
	}
	done := m.(*wire.StreamDone)
	c.Close()
	if done.Watermark != total {
		t.Errorf("final watermark %d, want %d", done.Watermark, total)
	}
	if done.Replayed != w2 {
		t.Errorf("phase-3 replays %d, want %d (deltas at or below its resume watermark)", done.Replayed, w2)
	}
	if p.Injector.Injected() == 0 {
		t.Fatal("no faults were injected; the chaos run tested nothing")
	}

	// Differential check: streamed state must match the tuple-at-a-time
	// oracle byte for byte, with no delta double-applied across the resumes.
	const targetQ = "SELECT CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER"
	got, want := testhost.State(t, p.CDWEng, targetQ), testhost.State(t, refEng, targetQ)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("target diverged under seed %d:\n ref:  %v\n virt: %v", seed, want, got)
	}
	gotET := testhost.State(t, p.CDWEng, "SELECT SEQNO, SEQNO_END, ERRCODE FROM PROD.CUSTOMER_ET")
	sort.Strings(refET)
	if strings.Join(gotET, "\n") != strings.Join(refET, "\n") {
		t.Errorf("error table diverged under seed %d:\n ref:  %v\n virt: %v", seed, refET, gotET)
	}
}

// TestStreamTrickleChaos runs two trickle-fed CDC streams, one delta per
// frame, beside a concurrent import on the default node config with fault
// injection on. A micro-batch cuts only at the controller's row hint, so
// each batch spans far more frames than the default credit pool (4 x
// GOMAXPROCS) holds credits. Every frame must still be acked within 10 s,
// and the differential scrub against the legacy EDW, which ran the same
// feeds and import, must come back clean.
//
// The fault seed comes from ETLVIRT_FAULT_SEED (the CI chaos matrix).
func TestStreamTrickleChaos(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	const (
		frames = 160 // per stream
		ackDue = 10 * time.Second
	)
	ddl := []string{
		`CREATE TABLE PROD.CUSTOMER (
	CUST_ID VARCHAR(5) NOT NULL,
	CUST_NAME VARCHAR(50),
	JOIN_DATE DATE,
	PRIMARY KEY (CUST_ID))`,
		`CREATE TABLE PROD.ACCOUNT (
	ACCT_ID VARCHAR(5) NOT NULL,
	ACCT_NAME VARCHAR(50),
	OPEN_DATE DATE,
	PRIMARY KEY (ACCT_ID))`,
	}
	const applySQL = `insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') )`
	const importScript = `
.logon host/user,pass;
.layout AcctLayout;
.field ACCT_ID varchar(5);
.field ACCT_NAME varchar(50);
.field OPEN_DATE varchar(10);
.begin import tables PROD.ACCOUNT
	errortables PROD.ACCOUNT_ET PROD.ACCOUNT_UV;
.dml label InsApply;
insert into PROD.ACCOUNT values (
	trim(:ACCT_ID), trim(:ACCT_NAME),
	cast(:OPEN_DATE as DATE format 'YYYY-MM-DD') );
.import infile accounts.txt
	format vartext '|' layout AcctLayout
	apply InsApply;
.end load;
`
	var sb strings.Builder
	for i := 1; i <= 300; i++ {
		id, date := fmt.Sprintf("%d", i), fmt.Sprintf("2021-%02d-%02d", 1+i%12, 1+i%28)
		switch {
		case i%29 == 3:
			date = "not-a-date"
		case i%41 == 0:
			id = fmt.Sprintf("%d", i/2) // duplicate of an earlier key
		}
		fmt.Fprintf(&sb, "%s|Account %d|%s\n", id, i, date)
	}
	script, err := etlscript.Parse(importScript)
	if err != nil {
		t.Fatal(err)
	}
	accounts := []byte(sb.String())

	layout := &ltype.Layout{Name: "CustLayout", Fields: []ltype.Field{
		{Name: "CUST_ID", Type: ltype.VarChar(5)},
		{Name: "CUST_NAME", Type: ltype.VarChar(50)},
		{Name: "JOIN_DATE", Type: ltype.VarChar(10)},
	}}
	// trickle feeds stream n to addr, one delta per frame, over a 30-key
	// space of its own: inserts, updates, every 11th a delete and every 17th
	// a date that fails the apply-time cast.
	trickle := func(addr string, n int) error {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		call := func(msg wire.Message, kind wire.Kind) (wire.Message, error) {
			if err := c.Send(0, msg); err != nil {
				return nil, err
			}
			nc.SetReadDeadline(time.Now().Add(ackDue))
			return c.Expect(kind)
		}
		if _, err := call(&wire.Logon{User: "u", Password: "p"}, wire.KindLogonOK); err != nil {
			return err
		}
		m, err := call(&wire.BeginStream{
			Name: fmt.Sprintf("trickle_%d", n), Table: "PROD.CUSTOMER",
			ErrTableET: fmt.Sprintf("PROD.TRICKLE%d_ET", n),
			Layout:     layout, Format: wire.FormatVartext, Delim: '|', SQL: applySQL,
		}, wire.KindStreamOK)
		if err != nil {
			return fmt.Errorf("stream %d: begin: %w", n, err)
		}
		id := m.(*wire.StreamOK).StreamID
		for f := 1; f <= frames; f++ {
			op, date := stream.OpUpdate, fmt.Sprintf("2023-%02d-%02d", 1+f%12, 1+f%28)
			switch {
			case f%11 == 0:
				op = stream.OpDelete
			case f%2 == 1:
				op = stream.OpInsert
			}
			if f%17 == 5 {
				date = "bad-date"
			}
			rec := fmt.Sprintf("%d%03d|Trickle %d.%d|%s\n", n, (f*7)%30, n, f, date)
			if _, err := call(&wire.DeltaFrame{
				StreamID: id, FirstSeq: uint64(f), Count: 1,
				Payload: stream.AppendDelta(nil, op, []byte(rec)),
			}, wire.KindDeltaAck); err != nil {
				return fmt.Errorf("stream %d frame %d: %w", n, f, err)
			}
		}
		if _, err := call(&wire.EndStream{StreamID: id}, wire.KindStreamDone); err != nil {
			return fmt.Errorf("stream %d: end: %w", n, err)
		}
		return nil
	}

	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: ddl})
	t.Logf("default pool: %d credits; %d single-delta frames per stream", p.Node.Credits().Total, frames)
	for _, addr := range []string{p.EDWAddr, p.NodeAddr} {
		// Both feeds and the import run at once; a side that has not
		// finished after a minute is hung.
		errs := make(chan error, 3)
		for n := 1; n <= 2; n++ {
			go func() { errs <- trickle(addr, n) }()
		}
		go func() {
			_, err := etlclient.Run(script, etlclient.Options{
				Addr: addr, ChunkRecords: 16,
				ReadFile: func(string) ([]byte, error) { return accounts, nil },
			})
			errs <- err
		}()
		hung := time.After(time.Minute)
		for range 3 {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("run against %s (seed %d): %v", addr, seed, err)
				}
			case <-hung:
				t.Fatalf("run against %s (seed %d) hung: not finished after a minute", addr, seed)
			}
		}
	}
	if p.Injector.Injected() == 0 {
		t.Fatal("no faults were injected; the chaos run tested nothing")
	}
	if cs := p.Node.Credits(); cs.Available != cs.Total || cs.InFlight != 0 {
		t.Errorf("credits not back in the pool: %+v", cs)
	}

	rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{
		{Name: "PROD.CUSTOMER", ErrTables: []string{"PROD.TRICKLE1_ET", "PROD.TRICKLE2_ET"}},
		{Name: "PROD.ACCOUNT", ErrTables: []string{"PROD.ACCOUNT_ET", "PROD.ACCOUNT_UV"}},
	}})
	if !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}
