package core_test

import (
	"strings"
	"testing"

	"etlvirt/internal/core"
	"etlvirt/internal/edw"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/stream"
)

// TestNoErrorTablesDropsRejects: an import that declares no error tables
// counts its acquisition rejects and apply errors and writes them nowhere,
// as the legacy EDW does, instead of failing on the missing table.
func TestNoErrorTablesDropsRejects(t *testing.T) {
	script := strings.Replace(example21Script(""), "\n\terrortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV", "", 1)
	files := map[string]string{"input.txt": "1|Good|2020-01-01\nonly|two\n3|Bad|xxxx\n"}

	legacy := edw.NewServer()
	edwAddr, err := legacy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { legacy.Close() })
	if _, err := legacy.Engine().ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	want := runScript(t, edwAddr, script, files, etlclient.Options{}).Imports[0]
	if want.DataErrors != 1 || want.Inserted != 1 || want.ErrorsET != 2 || want.ErrorsUV != 0 {
		t.Fatalf("EDW outcome %+v, want 1 data error, 1 inserted, 2 ET", want)
	}

	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	got := runScript(t, st.addr, script, files, etlclient.Options{}).Imports[0]
	if got.DataErrors != want.DataErrors || got.Inserted != want.Inserted ||
		got.ErrorsET != want.ErrorsET || got.ErrorsUV != want.ErrorsUV {
		t.Errorf("virtualized outcome %+v, EDW %+v", got, want)
	}
	if rep := st.node.Reports()[0]; rep.DataErrors != 1 || rep.ErrorsET != 1 {
		t.Errorf("report: %d data errors, %d ET; want 1 and 1", rep.DataErrors, rep.ErrorsET)
	}
}

// TestStreamErrorRowsBatchedBeforeWatermark: a stream batch's data errors
// and apply errors leave in one INSERT into its ET table, written before
// the watermark moves, and the commit's statement count is what reached
// the CDW.
func TestStreamErrorRowsBatchedBeforeWatermark(t *testing.T) {
	// Five deltas convert, so the frame fills the batch and commits.
	tap := &sqlTap{}
	st := startStackVia(t, core.Config{StreamMinBatch: 5, StreamMaxBatch: 5}, tap)
	mustEng(t, st.eng, customerDDL)
	var p []byte
	p = vtDelta(p, stream.OpInsert, "K01", "a", "2020-01-01")
	p = vtDelta(p, stream.OpInsert, "K02", "b", "2020-13-01")
	p = vtDelta(p, stream.OpInsert, "K03", "c", "2020-13-02")
	p = stream.AppendDelta(p, stream.OpInsert, []byte("only|two\n"))
	p = vtDelta(p, stream.OpInsert, "K04", "d", "2020-13-03")
	p = vtDelta(p, stream.OpInsert, "K05", "e", "2020-01-05")

	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_errrows", "PROD.CUSTOMER_ET")
	before := len(tap.snapshot())
	if ack := sendFrame(t, c, ok.StreamID, 1, 6, p); ack.CommittedSeq != 6 {
		t.Fatalf("CommittedSeq = %d, want 6", ack.CommittedSeq)
	}
	commit := tap.snapshot()[before:]
	done := endStream(t, c, ok.StreamID)
	if done.Inserted != 2 || done.ErrorsET != 4 {
		t.Errorf("stream done %+v, want 2 inserted and 4 ET", done)
	}
	if n := len(mustEng(t, st.eng, "SELECT SEQNO FROM PROD.CUSTOMER_ET").Rows); n != 4 {
		t.Errorf("%d rows in PROD.CUSTOMER_ET, want 4", n)
	}

	inserts, lastInsert, update := 0, -1, -1
	for i, q := range commit {
		switch {
		case strings.HasPrefix(q, "INSERT INTO PROD.CUSTOMER_ET "):
			inserts++
			lastInsert = i
		case strings.HasPrefix(q, "UPDATE etl_stage.stream_checkpoints "):
			update = i
		}
	}
	if inserts != 1 {
		t.Errorf("%d INSERTs into PROD.CUSTOMER_ET, want 1", inserts)
	}
	if update < 0 || lastInsert > update {
		t.Errorf("last ET INSERT is request %d, watermark UPDATE %d: want the INSERT first", lastInsert, update)
	}
	stmts := int64(-1)
	for _, e := range st.node.Events().Events(0) {
		if e.Type == "batch_commit" && e.Job == ok.StreamID {
			stmts, _ = e.Attrs["cdw_stmts"].(int64)
			break
		}
	}
	if stmts != int64(len(commit)) {
		t.Errorf("batch_commit cdw_stmts = %d, the CDW received %d", stmts, len(commit))
	}
}

// TestStreamRejectLeavesErrorsETMetric: etlvirt_errors_et_total counts
// application errors only. A delta that fails conversion is a data error,
// though the stream still reports it in StreamDone's ErrorsET.
func TestStreamRejectLeavesErrorsETMetric(t *testing.T) {
	st := startStack(t, core.Config{StreamMinBatch: 1, StreamMaxBatch: 1})
	mustEng(t, st.eng, customerDDL)
	c := dialStream(t, st.addr)
	defer c.Close()
	ok := beginStream(t, c, "cust_reject", "PROD.CUSTOMER_ET")
	dump := metricsDump(t, st.node)
	et, data := metricValue(t, dump, "etlvirt_errors_et_total"), metricValue(t, dump, "etlvirt_data_errors_total")

	p := stream.AppendDelta(nil, stream.OpInsert, []byte("only|two\n"))
	p = vtDelta(p, stream.OpInsert, "K01", "a", "2020-01-01")
	sendFrame(t, c, ok.StreamID, 1, 2, p)
	if done := endStream(t, c, ok.StreamID); done.ErrorsET != 1 || done.Inserted != 1 {
		t.Errorf("stream done %+v, want 1 ET and 1 inserted", done)
	}
	dump = metricsDump(t, st.node)
	if v := metricValue(t, dump, "etlvirt_errors_et_total"); v != et {
		t.Errorf("etlvirt_errors_et_total %v -> %v, want unchanged", et, v)
	}
	if v := metricValue(t, dump, "etlvirt_data_errors_total"); v != data+1 {
		t.Errorf("etlvirt_data_errors_total %v -> %v, want one more", data, v)
	}
}
