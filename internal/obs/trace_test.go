package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextWireRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{},
		{TraceID: 1, SpanID: 0, Sampled: false},
		{TraceID: 0xDEADBEEFCAFEF00D, SpanID: 0x0123456789ABCDEF, Sampled: true},
		{TraceID: ^uint64(0), SpanID: ^uint64(0), Sampled: true},
	}
	for _, tc := range cases {
		enc := tc.AppendWire(nil)
		if len(enc) != TraceContextWireSize {
			t.Fatalf("%+v: encoded to %d bytes, want %d", tc, len(enc), TraceContextWireSize)
		}
		got, err := DecodeTraceContext(enc)
		if err != nil {
			t.Fatalf("%+v: decode: %v", tc, err)
		}
		if got != tc {
			t.Errorf("round trip %+v -> %+v", tc, got)
		}
	}
	// short, long and reserved-bit encodings must be rejected
	if _, err := DecodeTraceContext(make([]byte, TraceContextWireSize-1)); err == nil {
		t.Error("short encoding accepted")
	}
	if _, err := DecodeTraceContext(make([]byte, TraceContextWireSize+1)); err == nil {
		t.Error("long encoding accepted")
	}
	bad := TraceContext{TraceID: 9}.AppendWire(nil)
	bad[16] |= 0x80
	if _, err := DecodeTraceContext(bad); err == nil {
		t.Error("reserved flag bits accepted")
	}
}

func TestTraceIDFormatParse(t *testing.T) {
	for _, id := range []uint64{1, 0xABCDEF, ^uint64(0)} {
		s := FormatTraceID(id)
		if len(s) != 16 {
			t.Errorf("FormatTraceID(%d) = %q, want 16 hex digits", id, s)
		}
		got, err := ParseTraceID(s)
		if err != nil || got != id {
			t.Errorf("ParseTraceID(%q) = %d, %v; want %d", s, got, err, id)
		}
	}
	for _, bad := range []string{"", "xyz", "00112233445566778899"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestNewTraceIDsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestTracerRetentionFIFO pins the eviction order at the retain cap: strictly
// oldest-finished-first, with the trace-ID index cleaned alongside.
func TestTracerRetentionFIFO(t *testing.T) {
	const retain = 4
	tr := NewTracer(retain, 0)
	traceIDs := map[uint64]uint64{}
	for id := uint64(1); id <= 10; id++ {
		jt := tr.Start(id, fmt.Sprintf("job %d", id))
		traceIDs[id] = jt.Context().TraceID
		tr.Finish(id)
	}
	if got := tr.Evicted(); got != 10-retain {
		t.Errorf("evicted = %d, want %d", got, 10-retain)
	}
	if got := tr.Retained(); got != retain {
		t.Errorf("retained = %d, want %d", got, retain)
	}
	for id := uint64(1); id <= 10-retain; id++ {
		if _, ok := tr.Get(id); ok {
			t.Errorf("job %d should have been evicted", id)
		}
		if jobs := tr.JobsByTrace(traceIDs[id]); len(jobs) != 0 {
			t.Errorf("trace index still holds evicted job %d", id)
		}
	}
	for id := uint64(10 - retain + 1); id <= 10; id++ {
		if _, ok := tr.Get(id); !ok {
			t.Errorf("job %d should be retained", id)
		}
		jobs := tr.JobsByTrace(traceIDs[id])
		if len(jobs) != 1 || jobs[0].JobID != id {
			t.Errorf("trace index lookup for job %d = %v", id, jobs)
		}
	}
	if got := tr.Started(); got != 10 {
		t.Errorf("started = %d, want 10", got)
	}
}

// TestTracerConcurrentStartFinishSnapshot drives Start/Add/Finish/Snapshot
// and the trace-ID index from many goroutines at once; run under -race this
// pins the tracer's locking discipline.
func TestTracerConcurrentStartFinishSnapshot(t *testing.T) {
	tr := NewTracer(8, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// snapshot/readers churn while writers start and finish traces
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, jt := range tr.Live() {
					_ = jt.Snapshot()
					_ = tr.DroppedSpans()
					if s, ok := tr.TraceByID(jt.Context().TraceID); ok {
						_ = s.Spans
					}
				}
				_ = tr.Retained()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				id := uint64(w*1000 + i + 1)
				jt := tr.StartCtx(id, "race", TraceContext{})
				for s := 0; s < 5; s++ {
					jt.Span("stage", "lane", time.Now(), 1, 1, nil)
				}
				_ = jt.Snapshot()
				tr.Finish(id)
				_, _ = tr.Get(id)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
}

func TestStartCtxContinuation(t *testing.T) {
	tr := NewTracer(4, 0)
	tr.SetProc("etlvirtd")
	incoming := TraceContext{TraceID: 0x1234, SpanID: 77, Sampled: true}
	jt := tr.StartCtx(5, "stream s", incoming)
	if got := jt.Context(); got.TraceID != incoming.TraceID || !got.Sampled {
		t.Fatalf("context = %+v, want continuation of %+v", got, incoming)
	}
	child := jt.ChildContext()
	if child.TraceID != incoming.TraceID || child.SpanID == 0 || child.SpanID == incoming.SpanID {
		t.Fatalf("child context %+v should parent under the job root span", child)
	}
	jt.Span("upload", "stream", time.Now(), 10, 100, nil)
	snap := jt.Snapshot()
	if snap.TraceID != FormatTraceID(incoming.TraceID) {
		t.Errorf("snapshot trace id %q, want %q", snap.TraceID, FormatTraceID(incoming.TraceID))
	}
	// the synthesized root span parents under the propagated client span,
	// and the stage span parents under the root
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %d, want root + stage", len(snap.Spans))
	}
	root, stage := snap.Spans[0], snap.Spans[1]
	if root.Stage != "job" || root.Parent != incoming.SpanID {
		t.Errorf("root span %+v should parent under client span %d", root, incoming.SpanID)
	}
	if stage.Parent != root.ID || stage.Proc != "etlvirtd" || stage.ID == 0 {
		t.Errorf("stage span %+v should parent under root %d with proc etlvirtd", stage, root.ID)
	}

	// merged lookup by trace ID stitches multiple jobs of one trace
	jt2 := tr.StartCtx(6, "import t", incoming)
	jt2.Span("copy", "stage", time.Now(), 1, 1, nil)
	merged, ok := tr.TraceByID(incoming.TraceID)
	if !ok {
		t.Fatal("TraceByID missed a live trace")
	}
	if merged.Finished {
		t.Error("merged snapshot of live jobs reported finished")
	}
	if len(merged.Spans) != 4 { // two roots + two stage spans
		t.Errorf("merged spans = %d, want 4", len(merged.Spans))
	}
	if _, ok := tr.TraceByID(0xFFFF_FFFF); ok {
		t.Error("unknown trace id resolved")
	}
}

func TestStandaloneJobTrace(t *testing.T) {
	tc := TraceContext{TraceID: NewTraceID(), SpanID: 0, Sampled: true}
	jt := NewJobTrace("client script", 16, "etlclient", tc)
	jt.Span("chunk_send", "session-0", time.Now(), 5, 50, nil)
	snap := jt.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Proc != "etlclient" || snap.Spans[0].ID == 0 {
		t.Fatalf("standalone trace spans = %+v", snap.Spans)
	}
}

func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Add(Event{Type: "retry", Job: uint64(i)})
	}
	evs := l.Events(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(6+i) || e.Job != uint64(6+i) {
			t.Errorf("event %d = seq %d job %d, want %d", i, e.Seq, e.Job, 6+i)
		}
		if e.Time.IsZero() {
			t.Errorf("event %d missing timestamp", i)
		}
	}
	if l.Recorded() != 10 || l.Dropped() != 6 {
		t.Errorf("recorded/dropped = %d/%d, want 10/6", l.Recorded(), l.Dropped())
	}
	// since-cursor resumes mid-ring
	if got := l.Events(8); len(got) != 2 || got[0].Seq != 8 {
		t.Errorf("Events(8) = %+v", got)
	}

	// nil log is a no-op
	var nl *EventLog
	nl.Add(Event{Type: "x"})
	if nl.Events(0) != nil || nl.Recorded() != 0 {
		t.Error("nil event log not inert")
	}
}

func TestEventLogSinkAndJSONL(t *testing.T) {
	l := NewEventLog(8)
	var sink bytes.Buffer
	l.SetSink(&sink)
	l.Add(Event{Type: "job_start", Job: 3, TraceID: "00000000000000ab", Msg: "import PROD.T"})
	l.Add(Event{Type: "job_finish", Job: 3, Attrs: map[string]any{"rows": 42}})

	var drained bytes.Buffer
	if err := l.WriteJSONL(&drained, 0); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{sink.String(), drained.String()} {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 2 {
			t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), out)
		}
		var e Event
		if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
			t.Fatalf("line 0 is not JSON: %v", err)
		}
		if e.Type != "job_start" || e.Job != 3 || e.TraceID != "00000000000000ab" {
			t.Errorf("decoded event %+v", e)
		}
	}
}

func TestLabeledGaugeFuncExposition(t *testing.T) {
	r := NewRegistry()
	r.LabeledGaugeFunc("lag_seconds", "Lag.", "stream", func() []LabeledValue {
		return []LabeledValue{{Label: "zeta", Value: 1.5}, {Label: "alpha", Value: 0}}
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	alpha := strings.Index(out, `lag_seconds{stream="alpha"} 0`)
	zeta := strings.Index(out, `lag_seconds{stream="zeta"} 1.5`)
	if alpha < 0 || zeta < 0 {
		t.Fatalf("labeled series missing:\n%s", out)
	}
	if alpha > zeta {
		t.Error("labeled series not sorted by label")
	}
	if !strings.Contains(out, "# TYPE lag_seconds gauge") {
		t.Error("labeled family missing TYPE line")
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "X.", []float64{0.1, 1})
	h.ObserveEx(0.05, 0xAB)
	h.ObserveEx(0.5, 0)  // untraced: no exemplar
	h.ObserveEx(5, 0xCD) // +Inf bucket
	h.Observe(0.2)       // classic path untouched

	exs := h.Exemplars()
	if len(exs) != 3 {
		t.Fatalf("exemplar slots = %d, want 3", len(exs))
	}
	if exs[0].TraceID != 0xAB || exs[0].Value != 0.05 {
		t.Errorf("bucket 0 exemplar = %+v", exs[0])
	}
	if exs[1].TraceID != 0 {
		t.Errorf("untraced bucket grew an exemplar: %+v", exs[1])
	}
	if exs[2].TraceID != 0xCD {
		t.Errorf("+Inf exemplar = %+v", exs[2])
	}

	// classic exposition stays free of mid-line '#', the opt-in variant
	// carries the annotation
	var classic, ex strings.Builder
	if err := r.WritePrometheus(&classic); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheusExemplars(&ex); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(classic.String(), "\n") {
		if !strings.HasPrefix(line, "#") && strings.Contains(line, "#") {
			t.Errorf("classic exposition has mid-line #: %q", line)
		}
	}
	if !strings.Contains(ex.String(), `# {trace_id="00000000000000ab"} 0.05`) {
		t.Errorf("exemplar exposition missing annotation:\n%s", ex.String())
	}
}
