package core

import (
	"sync"
	"time"
)

// JobReport captures the timings and counters of one virtualized job, broken
// into the phases the paper's evaluation reports (Figure 7): acquisition
// (receiving, converting, serializing and staging the data), application
// (running the transformed DML on the CDW), and other (startup/teardown).
type JobReport struct {
	JobID  uint64
	Target string
	Export bool

	// phase durations
	Acquisition time.Duration
	Application time.Duration
	Other       time.Duration

	// acquisition counters
	Chunks       int64
	BytesIn      int64
	RowsIn       int64 // records received from the client
	RowsStaged   int64 // records surviving conversion and COPY
	DataErrors   int64 // records rejected during acquisition
	FilesWritten int64
	BytesUpload  int64 // bytes handed to the bulk loader
	CopyBatches  int64 // incremental COPY manifests issued by the scheduler

	// application counters
	Inserted      int64
	Updated       int64
	Deleted       int64
	ErrorsET      int64
	ErrorsUV      int64
	BlockErrors   int64
	ApplyStmts    int64 // DML statements issued, incl. adaptive retries
	Splits        int64 // failing ranges split by the adaptive handler
	MaxSplitDepth int   // deepest adaptive-split level reached
	Locates       int64 // probes asking which rows of a failing range fail
	LocateMisses  int64 // probes that errored, plus located gaps that failed
	ExportedRows  int64
}

// Total returns the end-to-end job duration.
func (r *JobReport) Total() time.Duration {
	return r.Acquisition + r.Application + r.Other
}

// reportLog keeps finished job reports for inspection by tests and the
// benchmark harness. It is a bounded ring: once cap reports accumulate the
// oldest are evicted, and the eviction count is surfaced as the
// etlvirt_reports_dropped gauge so operators notice the truncation.
type reportLog struct {
	mu      sync.Mutex
	cap     int // zero leaves the log unbounded
	reports []JobReport
	start   int // index of the oldest report when the ring is full
	dropped int64
}

// record stores a finished job's report and feeds the OnJobDone observer
// hook, the collection point both import and export completion paths share.
func (n *Node) record(r JobReport) {
	n.reports.add(r)
	if n.cfg.OnJobDone != nil {
		n.cfg.OnJobDone(r)
	}
}

func (l *reportLog) add(r JobReport) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cap > 0 && len(l.reports) >= l.cap {
		l.reports[l.start] = r
		l.start = (l.start + 1) % len(l.reports)
		l.dropped++
		return
	}
	l.reports = append(l.reports, r)
}

// all returns a copy of the retained reports in insertion order.
func (l *reportLog) all() []JobReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]JobReport, 0, len(l.reports))
	out = append(out, l.reports[l.start:]...)
	out = append(out, l.reports[:l.start]...)
	return out
}

// droppedCount reports how many finished jobs were evicted from the ring.
func (l *reportLog) droppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// stopwatch measures named spans of a job's lifetime.
type stopwatch struct {
	start   time.Time // job creation
	acqFrom time.Time // first data chunk
	acqTo   time.Time // acquisition done
	appFrom time.Time
	appTo   time.Time
}

func (s *stopwatch) fill(r *JobReport, end time.Time) {
	if !s.acqFrom.IsZero() && !s.acqTo.IsZero() {
		r.Acquisition = s.acqTo.Sub(s.acqFrom)
	}
	if !s.appFrom.IsZero() && !s.appTo.IsZero() {
		r.Application = s.appTo.Sub(s.appFrom)
	}
	total := end.Sub(s.start)
	other := total - r.Acquisition - r.Application
	if other < 0 {
		other = 0
	}
	r.Other = other
}
