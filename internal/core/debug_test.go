package core_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
	"etlvirt/internal/wire"
)

func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricFamily strips histogram-sample suffixes so a sample line maps back to
// its registered family name.
func metricFamily(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// TestMetricsExposition verifies the Prometheus exposition contract after a
// real import: HELP and TYPE lines on every family, histograms expanded to
// _bucket/_sum/_count with a +Inf bucket, and the stage histograms populated.
func TestMetricsExposition(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{ChunkRecords: 2})

	resp, err := http.Get("http://" + dbgAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type: %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	helped := map[string]bool{}
	typed := map[string]string{}
	series := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			continue
		}
		name := strings.Fields(line)[0]
		series[name] = true
		fam := metricFamily(name)
		if !helped[fam] {
			t.Errorf("sample %q has no # HELP for family %q", name, fam)
		}
		if typed[fam] == "" {
			t.Errorf("sample %q has no # TYPE for family %q", name, fam)
		}
	}
	if len(typed) < 25 {
		t.Errorf("only %d metric families exposed, want >= 25", len(typed))
	}

	// The stage histograms the acceptance criteria name must exist, be typed
	// histogram, and have observations from the run just performed.
	histograms := 0
	for _, typ := range typed {
		if typ == "histogram" {
			histograms++
		}
	}
	if histograms < 4 {
		t.Errorf("only %d histograms exposed", histograms)
	}
	for _, h := range []string{
		"etlvirt_credit_wait_seconds",
		"etlvirt_chunk_convert_seconds",
		"etlvirt_upload_seconds",
		"etlvirt_dml_statement_seconds",
	} {
		if typed[h] != "histogram" {
			t.Errorf("%s: TYPE %q, want histogram", h, typed[h])
		}
		if !series[h+"_sum"] || !series[h+"_count"] {
			t.Errorf("%s: missing _sum/_count series", h)
		}
		if !strings.Contains(body, h+`_bucket{le="+Inf"}`) {
			t.Errorf("%s: missing +Inf bucket", h)
		}
		if strings.Contains(body, h+"_count 0\n") {
			t.Errorf("%s: no observations after import:\n%s", h, grepPrefix(body, h))
		}
	}

	// Legacy series names survive with live values.
	for _, want := range []string{
		"etlvirt_jobs_completed_total 1",
		"etlvirt_rows_received_total 5",
		"etlvirt_errors_et_total 2",
		"etlvirt_errors_uv_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func grepPrefix(body, prefix string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestJobsActiveLiveProgress drives an import by hand over the wire protocol
// and watches /jobs/active report advancing row counts while the job is
// mid-flight, then the phase flip to application, then the job's retirement.
func TestJobsActiveLiveProgress(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := wire.Dial(st.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(0, &wire.Logon{User: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLogonOK); err != nil {
		t.Fatal(err)
	}
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "K", Type: ltype.VarChar(5)},
		{Name: "V", Type: ltype.VarChar(50)},
		{Name: "D", Type: ltype.VarChar(10)},
	}}
	if err := conn.Send(0, &wire.BeginLoad{
		Table: "PROD.CUSTOMER", Layout: layout,
		Format: wire.FormatVartext, Delim: '|', Sessions: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Expect(wire.KindLoadOK)
	if err != nil {
		t.Fatal(err)
	}
	jobID := m.(*wire.LoadOK).JobID

	sendChunk := func(seq, firstRow uint64, rows ...string) {
		t.Helper()
		payload := strings.Join(rows, "\n") + "\n"
		if err := conn.Send(0, &wire.DataChunk{
			JobID: jobID, Seq: seq, FirstRow: firstRow,
			Count: uint32(len(rows)), Payload: []byte(payload),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Expect(wire.KindChunkAck); err != nil {
			t.Fatal(err)
		}
	}
	activeJobs := func() []core.ActiveJob {
		t.Helper()
		code, body := httpGet(t, dbgAddr, "/jobs/active")
		if code != 200 {
			t.Fatalf("/jobs/active: status %d", code)
		}
		var jobs []core.ActiveJob
		if err := json.Unmarshal([]byte(body), &jobs); err != nil {
			t.Fatalf("/jobs/active JSON: %v\n%s", err, body)
		}
		return jobs
	}
	waitFor := func(desc string, cond func([]core.ActiveJob) bool) []core.ActiveJob {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			jobs := activeJobs()
			if cond(jobs) {
				return jobs
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; last: %+v", desc, jobs)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	sendChunk(0, 1, "1|A|2020-01-01", "2|B|2020-01-02")
	jobs := waitFor("2 rows received", func(js []core.ActiveJob) bool {
		return len(js) == 1 && js[0].RowsIn == 2
	})
	if jobs[0].JobID != jobID || jobs[0].Kind != "import" || jobs[0].Phase != "acquisition" {
		t.Errorf("active job: %+v", jobs[0])
	}
	if jobs[0].Target != "PROD.CUSTOMER" {
		t.Errorf("target: %q", jobs[0].Target)
	}

	sendChunk(1, 3, "3|C|2020-01-03", "4|D|2020-01-04")
	waitFor("4 rows received", func(js []core.ActiveJob) bool {
		return len(js) == 1 && js[0].RowsIn == 4 && js[0].Chunks == 2
	})

	if err := conn.Send(0, &wire.EndAcquire{JobID: jobID}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindAcquireDone); err != nil {
		t.Fatal(err)
	}
	jobs = waitFor("application phase", func(js []core.ActiveJob) bool {
		return len(js) == 1 && js[0].Phase == "application"
	})
	if jobs[0].RowsConverted != 4 {
		t.Errorf("rows converted: %+v", jobs[0])
	}

	if err := conn.Send(0, &wire.EndLoad{JobID: jobID}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLoadDone); err != nil {
		t.Fatal(err)
	}
	waitFor("job retired", func(js []core.ActiveJob) bool { return len(js) == 0 })
}

// TestJobTraceEndpoint checks the per-job span timeline: ordered spans with
// the pipeline's stages after a finished import, the Chrome trace_event
// rendering, and the error paths.
func TestJobTraceEndpoint(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{ChunkRecords: 2})

	code, body := httpGet(t, dbgAddr, "/jobs/1/trace")
	if code != 200 {
		t.Fatalf("trace status %d: %s", code, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if snap.JobID != 1 || !snap.Finished {
		t.Errorf("snapshot header: %+v", snap)
	}
	if len(snap.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	stages := map[string]int{}
	for i, sp := range snap.Spans {
		stages[sp.Stage]++
		if i > 0 && sp.Start.Before(snap.Spans[i-1].Start) {
			t.Errorf("span %d out of order: %v before %v", i, sp.Start, snap.Spans[i-1].Start)
		}
	}
	for _, want := range []string{"setup", "credit_wait", "convert", "write", "upload", "copy", "dml", "apply"} {
		if stages[want] == 0 {
			t.Errorf("stage %q missing from trace; have %v", want, stages)
		}
	}
	// figure5Data drives adaptive splitting: more than one DML statement.
	if stages["dml"] < 2 {
		t.Errorf("dml spans = %d, want >= 2 (adaptive splits)", stages["dml"])
	}

	// Chrome trace_event format: complete events plus lane metadata.
	code, body = httpGet(t, dbgAddr, "/jobs/1/trace?format=chrome")
	if code != 200 {
		t.Fatalf("chrome trace status %d", code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  uint64  `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome trace JSON: %v", err)
	}
	if chrome.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit: %q", chrome.DisplayTimeUnit)
	}
	// Spans now carry per-process lanes: the virtualizer's own stages land
	// on the first process, nested CDW engine spans on another.
	var complete, meta int
	pids := map[uint64]bool{}
	for _, ev := range chrome.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.PID == 0 {
				t.Errorf("event without pid: %+v", ev)
			}
			pids[ev.PID] = true
		case "M":
			meta++
		}
	}
	if !pids[1] {
		t.Errorf("no events on the primary process lane; pids %v", pids)
	}
	if complete != len(snap.Spans) {
		t.Errorf("chrome complete events %d != %d spans", complete, len(snap.Spans))
	}
	if meta < 2 {
		t.Errorf("chrome metadata events: %d", meta)
	}

	if code, _ := httpGet(t, dbgAddr, "/jobs/999/trace"); code != 404 {
		t.Errorf("unknown job trace: status %d, want 404", code)
	}
	if code, _ := httpGet(t, dbgAddr, "/jobs/abc/trace"); code != 400 {
		t.Errorf("malformed job id: status %d, want 400", code)
	}
}

// TestServeDebugReRegistration verifies that a second ServeDebug call closes
// the first server instead of leaking it.
func TestServeDebugReRegistration(t *testing.T) {
	st := startStack(t, core.Config{})
	first, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := httpGet(t, first, "/healthz"); code != 200 {
		t.Fatalf("first debug server unhealthy: %d", code)
	}
	second, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := httpGet(t, second, "/healthz"); code != 200 {
		t.Fatalf("second debug server unhealthy: %d", code)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := http.Get("http://" + first + "/healthz"); err != nil {
			break // prior server closed
		}
		if time.Now().After(deadline) {
			t.Fatal("first debug server still serving after re-registration")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
