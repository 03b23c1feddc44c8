package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a job: receipt of a chunk, one conversion, one
// file rotation, one upload, one DML statement, one export batch. ID, Parent
// and Proc place the span in a cross-process timeline: leave them zero and
// Add fills in a fresh ID, the trace's root span as parent, and the tracer's
// process name.
type Span struct {
	ID     uint64        `json:"id,omitempty"`
	Parent uint64        `json:"parent,omitempty"`
	Proc   string        `json:"proc,omitempty"` // originating process, e.g. "etlclient"
	Stage  string        `json:"stage"`
	Worker string        `json:"worker,omitempty"` // goroutine lane, e.g. "convert-2"
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Rows   int64         `json:"rows,omitempty"`
	Bytes  int64         `json:"bytes,omitempty"`
	Depth  int           `json:"depth,omitempty"` // adaptive-split depth for DML spans
	Err    string        `json:"err,omitempty"`
}

// JobTrace accumulates the ordered span timeline of one job. Spans may be
// added concurrently from every pipeline goroutine; the timeline is
// retrievable at any moment, including while the job is still running. The
// span count is capped so error storms cannot grow memory without bound;
// spans past the cap are counted in Dropped.
type JobTrace struct {
	JobID uint64
	Label string
	Begin time.Time

	ctx  TraceContext // identity in the distributed timeline; zero TraceID = standalone
	root uint64       // span ID of the synthesized per-job root span; 0 = none
	proc string       // default Proc stamped on spans added here

	mu       sync.Mutex
	spans    []Span
	cap      int
	dropped  int64
	finished bool
	end      time.Time
}

// NewJobTrace builds a standalone trace outside any Tracer — the client side
// of a distributed trace records its local spans into one and ships them to
// the server. Spans default to proc as their process name.
func NewJobTrace(label string, spanCap int, proc string, tc TraceContext) *JobTrace {
	if spanCap <= 0 {
		spanCap = 8192
	}
	return &JobTrace{Label: label, Begin: time.Now(), cap: spanCap, proc: proc, ctx: tc}
}

// Context returns the trace identity assigned at Start.
func (t *JobTrace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return t.ctx
}

// ChildContext is the context to propagate on outbound calls made on behalf
// of this job: same trace, parented under the job's root span.
func (t *JobTrace) ChildContext() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	tc := t.ctx
	if t.root != 0 {
		tc.SpanID = t.root
	}
	return tc
}

// Add appends one span. Safe on a nil trace (tracing disabled). A zero ID,
// Parent or Proc is filled in from the trace's identity so call sites only
// name what deviates from the default.
func (t *JobTrace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	if s.ID == 0 {
		s.ID = NewSpanID()
	}
	if s.Parent == 0 {
		s.Parent = t.root
	}
	if s.Proc == "" {
		s.Proc = t.proc
	}
	t.spans = append(t.spans, s)
}

// AddRemote appends a span recorded by another process, preserving its
// parent link verbatim. Unlike Add, a zero Parent stays zero: the remote
// process's root span is the origin of the distributed trace, not a child
// of this job's local root, and re-parenting it would make the stitched
// timeline cyclic.
func (t *JobTrace) AddRemote(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	if s.ID == 0 {
		s.ID = NewSpanID()
	}
	t.spans = append(t.spans, s)
}

// Span records a completed stage that started at start and just ended.
func (t *JobTrace) Span(stage, worker string, start time.Time, rows, bytes int64, err error) {
	if t == nil {
		return
	}
	s := Span{Stage: stage, Worker: worker, Start: start, Dur: time.Since(start), Rows: rows, Bytes: bytes}
	if err != nil {
		s.Err = err.Error()
	}
	t.Add(s)
}

// TraceSnapshot is a copy of a trace timeline, spans ordered by start time.
type TraceSnapshot struct {
	JobID    uint64    `json:"job_id"`
	TraceID  string    `json:"trace_id,omitempty"` // 16 hex digits
	Sampled  bool      `json:"sampled,omitempty"`
	Label    string    `json:"label"`
	Begin    time.Time `json:"begin"`
	End      time.Time `json:"end,omitempty"`
	Finished bool      `json:"finished"`
	Dropped  int64     `json:"dropped_spans"`
	Spans    []Span    `json:"spans"`
}

// Snapshot copies the timeline. Safe while the job is running. Traces opened
// with StartCtx gain a synthesized root span covering the job's whole
// lifetime, parented under the propagated client span so cross-process
// timelines stitch into one tree.
func (t *JobTrace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	spans := make([]Span, 0, len(t.spans)+1)
	if t.root != 0 {
		end := t.end
		if !t.finished {
			end = time.Now()
		}
		spans = append(spans, Span{
			ID: t.root, Parent: t.ctx.SpanID, Proc: t.proc,
			Stage: "job", Worker: "job", Start: t.Begin, Dur: end.Sub(t.Begin),
		})
	}
	spans = append(spans, t.spans...)
	snap := TraceSnapshot{
		JobID:    t.JobID,
		Label:    t.Label,
		Begin:    t.Begin,
		End:      t.end,
		Finished: t.finished,
		Dropped:  t.dropped,
		Spans:    spans,
	}
	if t.ctx.Valid() {
		snap.TraceID = FormatTraceID(t.ctx.TraceID)
		snap.Sampled = t.ctx.Sampled
	}
	t.mu.Unlock()
	sortByStart(snap.Spans)
	return snap
}

// sortByStart orders spans by their wall-clock start, the clock the JSON and
// Chrome renderings show. Ordering by the monotonic reading, which spans
// from another process lack, can put two spans tens of ns apart in the
// opposite order to the times rendered.
func sortByStart(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.UnixNano() < spans[j].Start.UnixNano() })
}

// JSON renders the snapshot as indented JSON.
func (s TraceSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// chromeEvent is one Chrome trace_event object. Durations and timestamps
// are microseconds, as the format requires.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  uint64         `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders the snapshot in Chrome trace_event JSON object format,
// loadable by chrome://tracing and Perfetto. Each originating process
// (etlclient, etlvirtd, cdwd, ...) becomes a trace process numbered in
// first-seen order, and each worker lane within it becomes a thread, so a
// stitched multi-process timeline lays out as one aligned view.
func (s TraceSnapshot) ChromeTrace() ([]byte, error) {
	pids := map[string]uint64{}
	tids := map[string]int{}
	var events []chromeEvent
	procID := func(proc string) uint64 {
		if proc == "" {
			proc = s.Label
		}
		id, ok := pids[proc]
		if !ok {
			id = uint64(len(pids) + 1)
			pids[proc] = id
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", PID: id,
				Args: map[string]any{"name": proc + " · " + s.Label},
			})
		}
		return id
	}
	laneID := func(proc, worker string) int {
		if worker == "" {
			worker = "job"
		}
		key := proc + "/" + worker
		id, ok := tids[key]
		if !ok {
			id = len(tids)
			tids[key] = id
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: procID(proc), TID: id,
				Args: map[string]any{"name": worker},
			})
		}
		return id
	}
	for _, sp := range s.Spans {
		args := map[string]any{}
		if sp.ID != 0 {
			args["span"] = sp.ID
		}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		if sp.Rows != 0 {
			args["rows"] = sp.Rows
		}
		if sp.Bytes != 0 {
			args["bytes"] = sp.Bytes
		}
		if sp.Depth != 0 {
			args["depth"] = sp.Depth
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		events = append(events, chromeEvent{
			Name: sp.Stage,
			Cat:  "stage",
			Ph:   "X",
			TS:   float64(sp.Start.Sub(s.Begin).Nanoseconds()) / 1e3,
			Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
			PID:  procID(sp.Proc),
			TID:  laneID(sp.Proc, sp.Worker),
			Args: args,
		})
	}
	return json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// Tracer owns the traces of a node's jobs: live jobs are tracked in a map,
// finished traces are retained in a bounded FIFO so recent jobs stay
// inspectable without unbounded growth. A secondary index maps distributed
// trace IDs to the jobs participating in them.
type Tracer struct {
	mu      sync.Mutex
	spanCap int
	retain  int
	proc    string
	live    map[uint64]*JobTrace
	done    map[uint64]*JobTrace
	order   []uint64            // finished-trace eviction order
	byTrace map[uint64][]uint64 // trace ID -> job IDs, in Start order

	started atomic.Int64
	evicted atomic.Int64
}

// NewTracer returns a tracer retaining up to retain finished traces, each
// capped at spanCap spans. Non-positive arguments select defaults (64
// traces, 8192 spans).
func NewTracer(retain, spanCap int) *Tracer {
	if retain <= 0 {
		retain = 64
	}
	if spanCap <= 0 {
		spanCap = 8192
	}
	return &Tracer{
		spanCap: spanCap,
		retain:  retain,
		live:    make(map[uint64]*JobTrace),
		done:    make(map[uint64]*JobTrace),
		byTrace: make(map[uint64][]uint64),
	}
}

// SetProc names the process spans recorded through this tracer default to
// (e.g. "etlvirtd") in multi-process timelines.
func (tr *Tracer) SetProc(proc string) { tr.proc = proc }

// Start opens the trace for a new job, minting a fresh local trace identity.
func (tr *Tracer) Start(id uint64, label string) *JobTrace {
	return tr.start(id, label, TraceContext{}, false)
}

// StartCtx opens the trace for a job continuing the propagated context tc —
// or minting a fresh sampled identity when tc is zero — and gives the trace
// a root span so the job's stage spans parent under one node in the
// cross-process tree.
func (tr *Tracer) StartCtx(id uint64, label string, tc TraceContext) *JobTrace {
	return tr.start(id, label, tc, true)
}

func (tr *Tracer) start(id uint64, label string, tc TraceContext, root bool) *JobTrace {
	if !tc.Valid() {
		tc = TraceContext{TraceID: NewTraceID(), Sampled: true}
	}
	t := &JobTrace{JobID: id, Label: label, Begin: time.Now(), cap: tr.spanCap, ctx: tc, proc: tr.proc}
	if root {
		t.root = NewSpanID()
	}
	tr.started.Add(1)
	tr.mu.Lock()
	tr.live[id] = t
	tr.byTrace[tc.TraceID] = append(tr.byTrace[tc.TraceID], id)
	tr.mu.Unlock()
	return t
}

// Finish marks a job's trace complete and moves it to the retained set,
// evicting the oldest finished trace beyond the retention bound.
func (tr *Tracer) Finish(id uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.live[id]
	if !ok {
		return
	}
	delete(tr.live, id)
	t.mu.Lock()
	t.finished = true
	t.end = time.Now()
	t.mu.Unlock()
	tr.done[id] = t
	tr.order = append(tr.order, id)
	for len(tr.order) > tr.retain {
		tr.dropLocked(tr.order[0])
		tr.order = tr.order[1:]
		tr.evicted.Add(1)
	}
}

// dropLocked removes a finished trace and its trace-ID index entry.
func (tr *Tracer) dropLocked(id uint64) {
	t, ok := tr.done[id]
	if !ok {
		return
	}
	delete(tr.done, id)
	key := t.ctx.TraceID
	jobs := tr.byTrace[key]
	for i, j := range jobs {
		if j == id {
			jobs = append(jobs[:i], jobs[i+1:]...)
			break
		}
	}
	if len(jobs) == 0 {
		delete(tr.byTrace, key)
	} else {
		tr.byTrace[key] = jobs
	}
}

// Get looks a trace up among live then finished jobs.
func (tr *Tracer) Get(id uint64) (*JobTrace, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t, ok := tr.live[id]; ok {
		return t, true
	}
	t, ok := tr.done[id]
	return t, ok
}

// Live returns the traces of jobs still running, ordered by job ID.
func (tr *Tracer) Live() []*JobTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*JobTrace, 0, len(tr.live))
	for _, t := range tr.live {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// JobsByTrace returns every live or retained job trace participating in the
// distributed trace, in Start order.
func (tr *Tracer) JobsByTrace(traceID uint64) []*JobTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*JobTrace
	for _, id := range tr.byTrace[traceID] {
		if t, ok := tr.live[id]; ok {
			out = append(out, t)
		} else if t, ok := tr.done[id]; ok {
			out = append(out, t)
		}
	}
	return out
}

// TraceByID stitches every job participating in a distributed trace into one
// merged snapshot: spans from all jobs (and, through the spans they folded
// in, all processes) on one clock, ordered by start time.
func (tr *Tracer) TraceByID(traceID uint64) (TraceSnapshot, bool) {
	jobs := tr.JobsByTrace(traceID)
	if len(jobs) == 0 {
		return TraceSnapshot{}, false
	}
	merged := TraceSnapshot{
		TraceID:  FormatTraceID(traceID),
		Label:    "trace " + FormatTraceID(traceID),
		Finished: true,
	}
	for _, jt := range jobs {
		snap := jt.Snapshot()
		if merged.JobID == 0 {
			merged.JobID = snap.JobID
		}
		if merged.Begin.IsZero() || snap.Begin.Before(merged.Begin) {
			merged.Begin = snap.Begin
		}
		if snap.End.After(merged.End) {
			merged.End = snap.End
		}
		merged.Finished = merged.Finished && snap.Finished
		merged.Sampled = merged.Sampled || snap.Sampled
		merged.Dropped += snap.Dropped
		merged.Spans = append(merged.Spans, snap.Spans...)
	}
	if !merged.Finished {
		merged.End = time.Time{}
	}
	sortByStart(merged.Spans)
	return merged, true
}

// Started counts traces opened since the tracer was built.
func (tr *Tracer) Started() int64 { return tr.started.Load() }

// Evicted counts finished traces dropped by the retention bound.
func (tr *Tracer) Evicted() int64 { return tr.evicted.Load() }

// Retained counts finished traces currently held.
func (tr *Tracer) Retained() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.done)
}

// DroppedSpans sums the spans dropped by the per-trace span cap across live
// and retained traces.
func (tr *Tracer) DroppedSpans() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var n int64
	for _, t := range tr.live {
		t.mu.Lock()
		n += t.dropped
		t.mu.Unlock()
	}
	for _, t := range tr.done {
		t.mu.Lock()
		n += t.dropped
		t.mu.Unlock()
	}
	return n
}
