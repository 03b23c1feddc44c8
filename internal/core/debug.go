package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"etlvirt/internal/obs"
)

// ActiveJob is the live progress snapshot of one running job, served by
// /jobs/active. Counter fields are read from the job's atomics, so the
// values advance while the job runs.
type ActiveJob struct {
	JobID     uint64    `json:"job_id"`
	Kind      string    `json:"kind"` // "import" or "export"
	Target    string    `json:"target,omitempty"`
	Phase     string    `json:"phase"` // "acquisition", "application" or "export"
	StartedAt time.Time `json:"started_at"`
	ElapsedMS int64     `json:"elapsed_ms"`

	// acquisition progress
	Chunks        int64 `json:"chunks_received,omitempty"`
	RowsIn        int64 `json:"rows_received,omitempty"`
	BytesIn       int64 `json:"bytes_received,omitempty"`
	RowsConverted int64 `json:"rows_converted,omitempty"`
	FilesWritten  int64 `json:"files_written,omitempty"`
	FilesUploaded int64 `json:"files_uploaded,omitempty"`
	BytesUploaded int64 `json:"bytes_uploaded,omitempty"`
	CreditsHeld   int64 `json:"credits_held,omitempty"`
	CopyBatches   int64 `json:"copy_batches,omitempty"`
	CopyQueue     int64 `json:"copy_queue_files,omitempty"`

	// application progress
	Statements int64 `json:"statements_applied,omitempty"`
	ErrorsET   int64 `json:"errors_et,omitempty"`
	ErrorsUV   int64 `json:"errors_uv,omitempty"`

	// export progress
	RowsExported   int64 `json:"rows_exported,omitempty"`
	BatchesFetched int64 `json:"batches_fetched,omitempty"`

	// streaming progress
	Deltas    int64 `json:"deltas_received,omitempty"`
	Replayed  int64 `json:"deltas_replayed,omitempty"`
	Batches   int64 `json:"batches_committed,omitempty"`
	Watermark int64 `json:"watermark,omitempty"`
	BatchHint int64 `json:"batch_hint,omitempty"`
}

// StreamStatus is one stream's row in the /streams debug view: watermark
// progress, live lag, and the controller's latest latency attribution.
type StreamStatus struct {
	StreamID  uint64 `json:"stream_id"`
	Name      string `json:"name"`
	Target    string `json:"target"`
	TraceID   string `json:"trace_id,omitempty"`
	Watermark int64  `json:"watermark"`
	Batches   int64  `json:"batches_committed"`
	BatchHint int64  `json:"batch_hint"`

	// LagSeconds is the age of the oldest buffered, not-yet-committed delta
	// (0 when everything received has been applied) — the live value behind
	// the etlvirt_stream_watermark_lag_seconds gauge.
	LagSeconds float64 `json:"lag_seconds"`

	// SLO status: the controller's latency target versus the last commit.
	SLOTargetMS  int64 `json:"slo_target_ms"`
	LastCommitMS int64 `json:"last_commit_ms,omitempty"`
	LastRows     int   `json:"last_batch_rows,omitempty"`
	SLOOk        bool  `json:"slo_ok"`

	// The last commit's apply cost: the CDW statements it issued and the
	// images its error handler rejected.
	LastStmts   int64 `json:"last_commit_stmts,omitempty"`
	LastLocated int64 `json:"last_commit_located"`

	// Latency attribution from the controller's per-stage EWMAs.
	LastAction    string           `json:"last_action,omitempty"`
	DominantStage string           `json:"dominant_stage,omitempty"`
	StageEWMAMS   map[string]int64 `json:"stage_ewma_ms,omitempty"`
}

// status snapshots the stream for /streams. Safe from debug goroutines.
func (j *streamJob) status(now time.Time) StreamStatus {
	s := StreamStatus{
		StreamID:    j.id,
		Name:        j.req.Name,
		Target:      j.targets,
		TraceID:     j.traceID(),
		Watermark:   j.wmLive.Load(),
		Batches:     j.batches.Load(),
		BatchHint:   j.hintLive.Load(),
		SLOTargetMS: j.ctrl.Target().Milliseconds(),
		SLOOk:       true,
	}
	if ns := j.oldestLiveNs.Load(); ns != 0 {
		s.LagSeconds = now.Sub(time.Unix(0, ns)).Seconds()
	}
	j.statMu.Lock()
	st := j.lastStat
	j.statMu.Unlock()
	if st.latency > 0 {
		s.LastCommitMS = st.latency.Milliseconds()
		s.LastRows = st.rows
		s.LastStmts = st.stmts
		s.LastLocated = st.located
		s.LastAction = st.action
		s.DominantStage = st.dominant
		s.SLOOk = st.latency <= j.ctrl.Target()
		if len(st.stages) > 0 {
			s.StageEWMAMS = make(map[string]int64, len(st.stages))
			for name, d := range st.stages {
				s.StageEWMAMS[name] = d.Milliseconds()
			}
		}
	}
	return s
}

// StreamStatuses snapshots every open stream, ordered by stream ID.
func (n *Node) StreamStatuses() []StreamStatus {
	n.mu.Lock()
	streams := make([]*streamJob, 0, len(n.streams))
	for _, j := range n.streams {
		streams = append(streams, j)
	}
	n.mu.Unlock()
	now := time.Now()
	out := make([]StreamStatus, 0, len(streams))
	for _, j := range streams {
		out = append(out, j.status(now))
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].StreamID < out[k-1].StreamID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// ActiveJobs snapshots every running import and export job.
func (n *Node) ActiveJobs() []ActiveJob {
	n.mu.Lock()
	imports := make([]*importJob, 0, len(n.imports))
	for _, j := range n.imports {
		imports = append(imports, j)
	}
	exports := make([]*exportJob, 0, len(n.exports))
	for _, j := range n.exports {
		exports = append(exports, j)
	}
	streams := make([]*streamJob, 0, len(n.streams))
	for _, j := range n.streams {
		streams = append(streams, j)
	}
	n.mu.Unlock()

	now := time.Now()
	out := make([]ActiveJob, 0, len(imports)+len(exports)+len(streams))
	for _, j := range imports {
		phase := "acquisition"
		if j.acqDone.Load() {
			phase = "application"
		}
		out = append(out, ActiveJob{
			JobID:         j.id,
			Kind:          "import",
			Target:        j.targets,
			Phase:         phase,
			StartedAt:     j.watch.start,
			ElapsedMS:     now.Sub(j.watch.start).Milliseconds(),
			Chunks:        j.chunks.Load(),
			RowsIn:        j.rowsIn.Load(),
			BytesIn:       j.bytesIn.Load(),
			RowsConverted: j.rowsConv.Load(),
			FilesWritten:  j.filesW.Load(),
			FilesUploaded: j.files.Load(),
			BytesUploaded: j.upBytes.Load(),
			CreditsHeld:   j.creditsHeld.Load(),
			CopyBatches:   j.batchesN.Load(),
			CopyQueue:     j.copyQueue.Load(),
			Statements:    j.stmts.Load(),
			ErrorsET:      j.errsETLive.Load(),
			ErrorsUV:      j.errsUVLive.Load(),
		})
	}
	for _, j := range exports {
		out = append(out, ActiveJob{
			JobID:          j.id,
			Kind:           "export",
			Phase:          "export",
			StartedAt:      j.started,
			ElapsedMS:      now.Sub(j.started).Milliseconds(),
			RowsExported:   j.rowsOut.Load(),
			BatchesFetched: j.batches.Load(),
		})
	}
	for _, j := range streams {
		out = append(out, ActiveJob{
			JobID:     j.id,
			Kind:      "stream",
			Target:    j.targets,
			Phase:     "streaming",
			StartedAt: j.started,
			ElapsedMS: now.Sub(j.started).Milliseconds(),
			ErrorsET:  j.errsET.Load(),
			Deltas:    j.deltas.Load(),
			Replayed:  j.replayed.Load(),
			Batches:   j.batches.Load(),
			Watermark: j.wmLive.Load(),
			BatchHint: j.hintLive.Load(),
		})
	}
	// stable order for consumers
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].JobID < out[k-1].JobID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// ServeDebug starts an HTTP listener exposing operational endpoints:
//
//	/healthz           liveness probe
//	/metrics           Prometheus text exposition of the node registry
//	/jobs              JSON array of completed job reports
//	/jobs/active       JSON array of running jobs with live progress
//	/jobs/{id}/trace   per-job span timeline; ?format=chrome emits
//	                   Chrome trace_event JSON for chrome://tracing
//	/traces/{traceid}  distributed trace stitched across every job (and
//	                   process) sharing the 16-hex trace ID; ?format=chrome
//	                   as above
//	/streams           JSON array of open streams with live watermark lag
//	                   and per-stage latency attribution
//	/events            structured event log (JSONL); ?since=seq resumes
//	/debug/pprof/      runtime profiling
//
// It returns the bound address. Calling ServeDebug again replaces the
// previous debug server, closing it. The listener shuts down with the node.
func (n *Node) ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.MetricsHandler(n.nm.reg))
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(n.Reports())
	})
	mux.HandleFunc("/jobs/active", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(n.ActiveJobs())
	})
	mux.HandleFunc("/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		t, ok := n.tracer.Get(id)
		if !ok {
			http.Error(w, "no trace for job", http.StatusNotFound)
			return
		}
		snap := t.Snapshot()
		var body []byte
		if r.URL.Query().Get("format") == "chrome" {
			body, err = snap.ChromeTrace()
		} else {
			body, err = snap.JSON()
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/traces/{traceid}", func(w http.ResponseWriter, r *http.Request) {
		id, err := obs.ParseTraceID(r.PathValue("traceid"))
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		snap, ok := n.tracer.TraceByID(id)
		if !ok {
			http.Error(w, "no such trace", http.StatusNotFound)
			return
		}
		var body []byte
		if r.URL.Query().Get("format") == "chrome" {
			body, err = snap.ChromeTrace()
		} else {
			body, err = snap.JSON()
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/streams", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(n.StreamStatuses())
	})
	mux.Handle("/events", obs.EventsHandler(n.events))
	obs.AttachPprof(mux)
	srv := &http.Server{Handler: mux}
	// Bounded by the listener: node Close() (or a replacing DebugListen)
	// calls srv.Close, which stops Serve and ends the goroutine.
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			n.log.Error("debug server", "err", err)
		}
	}()
	n.mu.Lock()
	prev := n.debugSrv
	n.debugSrv = srv
	n.mu.Unlock()
	if prev != nil {
		prev.Close()
	}
	return ln.Addr().String(), nil
}
