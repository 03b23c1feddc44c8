package core_test

import (
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/faultinject"
)

// cdwSpans counts a job's CDW round-trip spans by stage, and fails the test
// unless each sits directly under the job's root span.
func cdwSpans(t *testing.T, node *core.Node, jobID uint64) map[string]int {
	t.Helper()
	jt, ok := node.Tracer().Get(jobID)
	if !ok {
		t.Fatalf("no trace for job %d", jobID)
	}
	root := jt.ChildContext().SpanID
	got := map[string]int{}
	for _, sp := range jt.Snapshot().Spans {
		if !strings.HasPrefix(sp.Stage, "cdw_") {
			continue
		}
		got[sp.Stage]++
		if sp.Parent != root {
			t.Errorf("%s span parented under %d, want the job root %d", sp.Stage, sp.Parent, root)
		}
	}
	return got
}

// TestStreamOpenRoundTripsTraced opens and closes a fresh stream with no
// deltas, so every CDW statement it sends is part of its open or its close.
// The open's target describe, checkpoint DDL, checkpoint read, seed insert
// and error-table drop and create are spans under the stream's root: one
// cdw_describe, one cdw_query and at least four cdw_exec. A keyed import's
// describe is a span under its root too, and every round trip either job
// counts in etlvirt_cdw_requests_total is one of its spans. A stream whose
// open fails leaves no live trace.
func TestStreamOpenRoundTripsTraced(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, accountDDL)
	mustEng(t, st.eng, customerDDL)
	requests := func() float64 { return metricValue(t, metricsDump(t, st.node), "etlvirt_cdw_requests_total") }
	spanned := func(got map[string]int) float64 {
		n := 0
		for _, c := range got {
			n += c
		}
		return float64(n)
	}

	before := requests()
	runScript(t, st.addr, cdcScript, map[string]string{"deltas.txt": ""}, etlclient.Options{})
	sent := requests() - before
	jt, ok := st.node.Tracer().Get(1)
	if !ok || jt.Label != "stream acct_cdc" {
		t.Fatalf("job 1 is not the stream: %v", ok)
	}
	got := cdwSpans(t, st.node, 1)
	if got["cdw_describe"] != 1 || got["cdw_query"] != 1 || got["cdw_exec"] < 4 {
		t.Errorf("stream open spans %v, want 1 cdw_describe, 1 cdw_query and at least 4 cdw_exec", got)
	}
	if spanned(got) != sent {
		t.Errorf("the stream sent %v CDW requests and traced %v: %v", sent, spanned(got), got)
	}

	before = requests()
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": "1|A|2020-01-01\n"}, etlclient.Options{})
	sent = requests() - before
	if got = cdwSpans(t, st.node, 2); got["cdw_describe"] != 1 || spanned(got) != sent {
		t.Errorf("keyed import spans %v for %v CDW requests, want 1 cdw_describe and one span per request", got, sent)
	}

	// The open's first statement after Describe is the checkpoint DDL;
	// failing it fatally fails the open after its trace started.
	inj := faultinject.New(1)
	inj.SetRule("cdw.query", faultinject.Rule{Nth: []int64{1}, Class: faultinject.ClassFatal})
	st = startStack(t, core.Config{FaultInjector: inj, RetryBaseDelay: time.Millisecond})
	mustEng(t, st.eng, accountDDL)
	s := parseScript(t, cdcScript)
	opts := etlclient.Options{
		Addr:     st.addr,
		ReadFile: func(string) ([]byte, error) { return nil, nil },
	}
	if _, err := etlclient.Run(s, opts); err == nil {
		t.Fatal("stream opened despite a fatal checkpoint DDL fault")
	}
	tr := st.node.Tracer()
	if got := tr.Started(); got != 1 {
		t.Errorf("traces started = %d, want 1: the failed open's", got)
	}
	if live := tr.Live(); len(live) != 0 {
		t.Errorf("failed stream open leaked %d live trace(s)", len(live))
	}
}

// TestExportOpenCountedAndTraced runs one export: its open is its only CDW
// round trip, so it raises etlvirt_cdw_requests_total by one and records
// exactly one cdw_query span, with its engine span nested inside.
func TestExportOpenCountedAndTraced(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, accountDDL)
	mustEng(t, st.eng, "INSERT INTO PROD.ACCOUNT VALUES ('A1', 'One'), ('A2', 'Two')")
	before := metricValue(t, metricsDump(t, st.node), "etlvirt_cdw_requests_total")
	runScript(t, st.addr, exportScript, nil,
		etlclient.Options{WriteFile: func(string, []byte) error { return nil }})
	after := metricValue(t, metricsDump(t, st.node), "etlvirt_cdw_requests_total")
	if after-before != 1 {
		t.Errorf("one export counted %v CDW requests, want 1", after-before)
	}
	if got := cdwSpans(t, st.node, 1); len(got) != 1 || got["cdw_query"] != 1 {
		t.Errorf("export round-trip spans %v, want exactly one cdw_query", got)
	}
	jt, _ := st.node.Tracer().Get(1)
	var engine int
	for _, sp := range jt.Snapshot().Spans {
		if sp.Stage == "engine" && sp.Proc == "cdwd" {
			engine++
		}
	}
	if engine != 1 {
		t.Errorf("%d engine spans, want 1 under the open", engine)
	}
}
