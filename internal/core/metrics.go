package core

import (
	"time"

	"etlvirt/internal/cloudstore"
	"etlvirt/internal/obs"
)

// nodeMetrics is the node's registry of live pipeline series — the
// stage-granular telemetry the paper's evaluation attributes job time with
// (§9, Figures 7-11). Every pipeline stage publishes here while jobs run;
// JobReport remains the per-job summary filed at completion.
type nodeMetrics struct {
	reg *obs.Registry

	// job lifecycle
	jobsStarted, jobsCompleted, jobsFailed, jobsAborted *obs.Counter
	exportsStarted, exportsCompleted                    *obs.Counter

	// acquisition (Alpha chunk receipt -> conversion -> files -> upload)
	chunks, rowsIn, bytesIn           *obs.Counter
	rowsConverted, dataErrors         *obs.Counter
	filesWritten, filesUploaded       *obs.Counter
	bytesUploaded, copyStatements     *obs.Counter
	creditWait, convertLat, rotateLat *obs.Histogram
	uploadLat, linkLat                *obs.Histogram

	// pipelined staging lane (incremental COPY scheduler)
	copyBatches, copyReplays *obs.Counter
	copyBatchFiles           *obs.Histogram

	// application (Beta DML with adaptive splitting)
	rowsInserted, rowsUpdated, rowsDeleted *obs.Counter
	errorsET, errorsUV, blockErrors        *obs.Counter
	dmlStatements, adaptiveSplits          *obs.Counter
	locates, locateMisses                  *obs.Counter
	dmlLat                                 *obs.Histogram
	splitDepth                             *obs.Histogram

	// export (TDFCursor)
	rowsExported, exportBatches, exportChunks *obs.Counter
	exportBatchLat                            *obs.Histogram

	// streaming (continuous micro-batch CDC ingestion)
	streamsOpened, streamsAborted           *obs.Counter
	streamDeltas, streamReplays             *obs.Counter
	streamBatches                           *obs.Counter
	streamGrows, streamShrinks, streamHolds *obs.Counter
	streamBatchRows                         *obs.Histogram
	streamCommitLat                         *obs.Histogram

	// streaming per-stage latency attribution (frame ingest plus the five
	// commit-path stages the controller's EWMA breakdown tracks)
	streamStageFrame  *obs.Histogram
	streamStageSpool  *obs.Histogram
	streamStageUpload *obs.Histogram
	streamStageCopy   *obs.Histogram
	streamStageApply  *obs.Histogram
	streamStageCkpt   *obs.Histogram

	// CDW round trips (all Beta traffic incl. staging DDL and probes)
	cdwRequests, cdwErrors *obs.Counter
	cdwReqLat              *obs.Histogram

	// resilience layer (retries, recovery, injected faults)
	retryAttempts, retryExhausted *obs.Counter
	copyRecoveries                *obs.Counter
	retryBackoff                  *obs.Histogram
}

// newNodeMetrics builds the registry and wires the stage observers of every
// subsystem the node owns into it.
func newNodeMetrics(n *Node) *nodeMetrics {
	r := obs.NewRegistry()
	m := &nodeMetrics{reg: r}

	m.jobsStarted = r.Counter("etlvirt_jobs_started_total", "Import jobs begun.")
	m.jobsCompleted = r.Counter("etlvirt_jobs_completed_total", "Completed import jobs.")
	m.jobsFailed = r.Counter("etlvirt_jobs_failed_total", "Import jobs poisoned by a pipeline failure.")
	m.jobsAborted = r.Counter("etlvirt_jobs_aborted_total", "Import jobs aborted by client disconnect.")
	m.exportsStarted = r.Counter("etlvirt_exports_started_total", "Export jobs begun.")
	m.exportsCompleted = r.Counter("etlvirt_exports_completed_total", "Completed export jobs.")
	r.GaugeFunc("etlvirt_jobs_active", "Import jobs currently running.", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.imports))
	})
	r.GaugeFunc("etlvirt_exports_active", "Export jobs currently running.", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.exports))
	})

	m.chunks = r.Counter("etlvirt_chunks_received_total", "Data chunks received from legacy clients (Alpha).")
	m.rowsIn = r.Counter("etlvirt_rows_received_total", "Records received from legacy clients.")
	m.bytesIn = r.Counter("etlvirt_bytes_received_total", "Payload bytes received from legacy clients.")
	m.rowsConverted = r.Counter("etlvirt_rows_converted_total", "Records surviving DataConverter conversion.")
	m.dataErrors = r.Counter("etlvirt_data_errors_total", "Records rejected during acquisition conversion.")
	m.filesWritten = r.Counter("etlvirt_files_written_total", "Intermediate files finalized by FileWriters.")
	m.filesUploaded = r.Counter("etlvirt_files_uploaded_total", "Intermediate files uploaded to the object store.")
	m.bytesUploaded = r.Counter("etlvirt_bytes_uploaded_total", "Bytes handed to the bulk loader.")
	m.copyStatements = r.Counter("etlvirt_copy_statements_total", "COPY statements issued to stage uploaded files.")
	m.creditWait = r.Histogram("etlvirt_credit_wait_seconds",
		"Time sessions spent acquiring a credit (back-pressure, §5).", nil)
	m.convertLat = r.Histogram("etlvirt_chunk_convert_seconds",
		"Per-chunk DataConverter latency.", nil)
	m.rotateLat = r.Histogram("etlvirt_file_rotate_seconds",
		"FileWriter rotation latency (gzip finalize + close).", nil)
	m.uploadLat = r.Histogram("etlvirt_upload_seconds",
		"Per-file bulk-loader upload latency.", nil)
	m.copyBatches = r.Counter("etlvirt_copy_batches_total",
		"Incremental manifest COPY batches landed while acquisition was still running.")
	m.copyReplays = r.Counter("etlvirt_copy_batch_replays_total",
		"Landed manifest batches re-COPYed while recovering a failed staging COPY.")
	m.copyBatchFiles = r.Histogram("etlvirt_copy_batch_files",
		"Files folded into one manifest COPY statement.", obs.SizeBuckets)
	m.linkLat = r.Histogram("etlvirt_link_transfer_seconds",
		"Simulated cloud-link transfer time per object.", nil)

	m.rowsInserted = r.Counter("etlvirt_rows_inserted_total", "Rows inserted by application DML.")
	m.rowsUpdated = r.Counter("etlvirt_rows_updated_total", "Rows updated by application DML.")
	m.rowsDeleted = r.Counter("etlvirt_rows_deleted_total", "Rows deleted by application DML.")
	m.errorsET = r.Counter("etlvirt_errors_et_total", "Application errors recorded in ET tables.")
	m.errorsUV = r.Counter("etlvirt_errors_uv_total", "Uniqueness violations recorded in UV tables.")
	m.blockErrors = r.Counter("etlvirt_block_errors_total", "Ranges recorded as blocks after budget exhaustion.")
	m.dmlStatements = r.Counter("etlvirt_dml_statements_total",
		"Application DML statements issued, including adaptive retries (Figure 11).")
	m.adaptiveSplits = r.Counter("etlvirt_adaptive_splits_total",
		"Failing ranges split in half by the adaptive error handler (§7).")
	m.locates = r.Counter("etlvirt_errhandle_locates_total",
		"Probes asking the CDW which rows of a failing range fail, instead of bisecting blind (§7).")
	m.locateMisses = r.Counter("etlvirt_errhandle_locate_misses_total",
		"Locate probes that errored, plus located gaps that failed anyway and were bisected.")
	m.dmlLat = r.Histogram("etlvirt_dml_statement_seconds",
		"Per-statement application DML latency.", nil)
	m.splitDepth = r.Histogram("etlvirt_split_depth",
		"Adaptive-split depth of failing DML statements.", obs.DepthBuckets)

	m.rowsExported = r.Counter("etlvirt_rows_exported_total", "Rows streamed to export clients.")
	m.exportBatches = r.Counter("etlvirt_export_batches_total", "Result batches fetched by TDFCursors.")
	m.exportChunks = r.Counter("etlvirt_export_chunks_total", "Export chunks encoded for legacy clients.")
	m.exportBatchLat = r.Histogram("etlvirt_export_batch_seconds",
		"Per-batch TDFCursor fetch latency.", nil)

	m.streamsOpened = r.Counter("etlvirt_stream_sessions_opened_total", "Streaming sessions opened (fresh or resumed).")
	m.streamsAborted = r.Counter("etlvirt_stream_sessions_aborted_total", "Streaming sessions aborted by client disconnect or a poisoned frame.")
	m.streamDeltas = r.Counter("etlvirt_stream_deltas_total", "CDC delta records received on streaming sessions.")
	m.streamReplays = r.Counter("etlvirt_stream_replays_total", "Delta records dropped as replays at or below the committed watermark.")
	m.streamBatches = r.Counter("etlvirt_stream_batches_total", "Streaming micro-batches committed.")
	m.streamGrows = r.Counter("etlvirt_stream_ctrl_grow_total", "Adaptive controller decisions growing the micro-batch.")
	m.streamShrinks = r.Counter("etlvirt_stream_ctrl_shrink_total", "Adaptive controller decisions shrinking the micro-batch.")
	m.streamHolds = r.Counter("etlvirt_stream_ctrl_hold_total", "Adaptive controller decisions holding the micro-batch size.")
	m.streamBatchRows = r.Histogram("etlvirt_stream_batch_rows",
		"Records per committed streaming micro-batch.", obs.SizeBuckets)
	m.streamCommitLat = r.Histogram("etlvirt_stream_commit_seconds",
		"End-to-end micro-batch commit latency (first buffered delta to watermark advance).", nil)
	m.streamStageFrame = r.Histogram("etlvirt_stream_frame_recv_seconds",
		"Per-frame delta ingest latency (parse, replay filter, spool hand-off).", nil)
	m.streamStageSpool = r.Histogram("etlvirt_stream_spool_seconds",
		"Per-batch delta conversion and spool-append time.", nil)
	m.streamStageUpload = r.Histogram("etlvirt_stream_upload_seconds",
		"Per-batch object-store upload time of the batch's one spool object.", nil)
	m.streamStageCopy = r.Histogram("etlvirt_stream_copy_seconds",
		"Per-batch staging COPY time (recreate + one manifest COPY).", nil)
	m.streamStageApply = r.Histogram("etlvirt_stream_apply_seconds",
		"Per-batch DML application time (error bookkeeping + MERGE triple).", nil)
	m.streamStageCkpt = r.Histogram("etlvirt_stream_checkpoint_seconds",
		"Per-batch watermark checkpoint write time.", nil)
	r.GaugeFunc("etlvirt_stream_sessions_active", "Streaming sessions currently open.", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.streams))
	})
	r.LabeledGaugeFunc("etlvirt_stream_watermark_lag_seconds",
		"Age of the oldest buffered, not-yet-committed delta per stream; 0 when fully applied.",
		"stream", func() []obs.LabeledValue {
			n.mu.Lock()
			streams := make([]*streamJob, 0, len(n.streams))
			for _, j := range n.streams {
				streams = append(streams, j)
			}
			n.mu.Unlock()
			now := time.Now()
			out := make([]obs.LabeledValue, 0, len(streams))
			for _, j := range streams {
				lag := 0.0
				if ns := j.oldestLiveNs.Load(); ns != 0 {
					lag = now.Sub(time.Unix(0, ns)).Seconds()
				}
				out = append(out, obs.LabeledValue{Label: j.req.Name, Value: lag})
			}
			return out
		})

	m.cdwRequests = r.Counter("etlvirt_cdw_requests_total", "Round trips to the CDW (all Beta traffic).")
	m.cdwErrors = r.Counter("etlvirt_cdw_errors_total", "CDW round trips that returned an error.")
	m.cdwReqLat = r.Histogram("etlvirt_cdw_request_seconds", "CDW round-trip latency.", nil)

	m.retryAttempts = r.Counter("etlvirt_retry_attempts_total",
		"Operations re-driven after a transient failure (CDW round trips, uploads, COPY, export opens).")
	m.retryExhausted = r.Counter("etlvirt_retry_exhausted_total",
		"Operations abandoned after exhausting their retry attempts or budget.")
	m.copyRecoveries = r.Counter("etlvirt_copy_recoveries_total",
		"Staging tables recreated to recover a failed COPY.")
	m.retryBackoff = r.Histogram("etlvirt_retry_backoff_seconds",
		"Backoff scheduled before each retry.", nil)
	r.GaugeFunc("etlvirt_retry_budget_remaining",
		"Retries left in the node-wide budget; -1 when unlimited.",
		func() float64 { return float64(n.budget.Remaining()) })
	inj := n.inj
	r.CounterFunc("etlvirt_faults_injected_total", "Faults fired by the fault-injection layer.",
		func() int64 {
			if inj == nil {
				return 0
			}
			return inj.Injected()
		})

	// CreditManager pool state, read live at scrape time.
	r.GaugeFunc("etlvirt_credits_total", "Size of the CreditManager pool.",
		func() float64 { return float64(n.credits.Stats().Total) })
	r.GaugeFunc("etlvirt_credits_available", "Credits currently available.",
		func() float64 { return float64(n.credits.Stats().Available) })
	r.GaugeFunc("etlvirt_credit_inflight_bytes", "Bytes charged to outstanding credits.",
		func() float64 { return float64(n.credits.Stats().InFlight) })
	r.GaugeFunc("etlvirt_credit_peak_inflight_bytes", "Peak observed in-flight bytes.",
		func() float64 { return float64(n.credits.Stats().PeakInFlight) })
	r.CounterFunc("etlvirt_credit_acquires_total", "Credit Acquire calls.",
		func() int64 { return n.credits.Stats().Acquires })
	r.CounterFunc("etlvirt_credit_waits_total", "Credit acquires that had to block.",
		func() int64 { return n.credits.Stats().Waits })

	r.GaugeFunc("etlvirt_reports_dropped", "Completed job reports evicted from the bounded report log.",
		func() float64 { return float64(n.reports.droppedCount()) })

	// Observability self-telemetry: trace retention and event-log pressure.
	r.CounterFunc("etlvirt_trace_jobs_started_total", "Job traces opened by the tracer.",
		func() int64 { return n.tracer.Started() })
	r.CounterFunc("etlvirt_trace_evicted_total", "Finished job traces evicted by the retention bound.",
		func() int64 { return n.tracer.Evicted() })
	r.CounterFunc("etlvirt_trace_spans_dropped_total", "Spans dropped by per-job span caps.",
		func() int64 { return n.tracer.DroppedSpans() })
	r.GaugeFunc("etlvirt_trace_retained", "Finished job traces currently retained.",
		func() float64 { return float64(n.tracer.Retained()) })
	r.CounterFunc("etlvirt_events_recorded_total", "Structured events recorded in the event ring.",
		func() int64 { return n.events.Recorded() })
	r.CounterFunc("etlvirt_events_dropped_total", "Events overwritten in the ring before being drained.",
		func() int64 { return n.events.Dropped() })

	obs.RegisterRuntimeMetrics(r)

	// stage observers
	n.credits.SetObserver(func(wait time.Duration, _ bool) {
		m.creditWait.ObserveDuration(wait)
	})
	n.pool.SetObserver(func(_ string, d time.Duration, err error) {
		m.cdwRequests.Inc()
		if err != nil {
			m.cdwErrors.Inc()
		}
		m.cdwReqLat.ObserveDuration(d)
	})
	n.retry.Observe = func(op string, retry int, delay time.Duration, err error) {
		m.retryAttempts.Inc()
		m.retryBackoff.ObserveDuration(delay)
		n.events.Add(obs.Event{Type: "retry", Msg: op, Attrs: map[string]any{
			"retry": retry, "delay_ms": delay.Milliseconds(), "err": err.Error(),
		}})
		n.log.Warn("retrying after transient failure", "op", op, "retry", retry, "delay", delay, "err", err)
	}
	n.retry.OnExhausted = func(op string, attempts int, err error) {
		m.retryExhausted.Inc()
		n.events.Add(obs.Event{Type: "retry_exhausted", Msg: op, Attrs: map[string]any{
			"attempts": attempts, "err": err.Error(),
		}})
		n.log.Error("retries exhausted", "op", op, "attempts", attempts, "err", err)
	}
	if ts, ok := n.store.(*cloudstore.ThrottledStore); ok && ts.Link != nil {
		ts.Link.OnTransfer = func(bytes int, d time.Duration) {
			m.linkLat.ObserveDuration(d)
		}
	}
	return m
}
