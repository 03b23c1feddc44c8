// Package core implements the virtualizer node — the system of §3. It
// listens for legacy-protocol connections (Alpha), reassembles messages
// (the Coalescer: wire.ReadFrame over each wire.Conn's buffered reader),
// cross-compiles protocol and SQL (PXC, via internal/sqlxlate), converts
// and stages data through the acquisition pipeline (DataConverter ->
// FileWriter -> bulk loader -> COPY), executes rewritten statements on the
// CDW (Beta, via internal/cdwnet), streams export results through a
// TDFCursor, and emulates legacy error-handling semantics with adaptive
// splitting (internal/errhandle).
package core

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/convert"
	"etlvirt/internal/credit"
	"etlvirt/internal/faultinject"
	"etlvirt/internal/obs"
	"etlvirt/internal/retrier"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/wire"
)

// Config tunes a virtualizer node. Zero values select sensible defaults.
type Config struct {
	// CDWAddr is the address of the cdwnet server.
	CDWAddr string

	// Credits sizes the node-wide CreditManager pool (§5). Zero defaults to
	// 4 x Converters.
	Credits int
	// MemBudget caps in-flight chunk bytes; exceeding it fails the job, the
	// paper's OOM failure mode. Zero disables the cap.
	MemBudget int64

	// Converters is the number of parallel DataConverter workers per job.
	// Zero defaults to GOMAXPROCS.
	Converters int
	// FileWriters is the number of parallel FileWriter goroutines per job.
	// Zero defaults to 2.
	FileWriters int
	// FileSizeThreshold rotates intermediate files (bytes). Zero defaults to
	// 4 MiB.
	FileSizeThreshold int
	// Gzip compresses intermediate files before upload, at the codec's
	// default level.
	Gzip bool

	// CopyBatchFiles is how many uploaded files the copy scheduler folds into
	// one incremental manifest COPY. Zero defaults to 4.
	CopyBatchFiles int

	// UploadParallelism bounds concurrent uploads per job.
	UploadParallelism int

	// ExportChunkRows sizes export chunks (and the TDFCursor fetch size).
	ExportChunkRows int

	// SchemaMap renames legacy databases to CDW schemas.
	SchemaMap map[string]string
	// ConvertOpts tunes the DataConverter.
	ConvertOpts convert.Options

	// MaxErrors/MaxRetries are the defaults for jobs that do not set their
	// own (§7).
	MaxErrors  int
	MaxRetries int

	// StreamMinBatch/StreamMaxBatch clamp the adaptive records-per-micro-batch
	// hint. Zeros select the stream.Config defaults (16 and 2048).
	StreamMinBatch int
	StreamMaxBatch int

	// EventSink, when non-nil, receives every recorded event as one JSON
	// line in addition to the ring (typically an event-log file).
	EventSink io.Writer

	// RetryMaxAttempts caps attempts (including the first) for each retried
	// operation: CDW round trips, uploads, COPY recovery, export opens.
	// Zero selects retrier.DefaultMaxAttempts.
	RetryMaxAttempts int
	// RetryBaseDelay is the backoff before the first retry; RetryMaxDelay
	// caps the exponential growth. Zeros select the retrier defaults.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// RetryBudget bounds total retries across the whole node; zero or
	// negative means unlimited.
	RetryBudget int64

	// PutTimeout bounds each object-store put; CDWTimeout bounds each CDW
	// round trip. Zero disables the bound.
	PutTimeout time.Duration
	CDWTimeout time.Duration

	// FaultInjector, when non-nil, wraps the object store in a
	// faultinject.FaultyStore and arms the CDW client fault hook — the
	// chaos-testing surface. Nil injects nothing.
	FaultInjector *faultinject.Injector

	// OnJobDone, when non-nil, observes every finished job report (imports
	// and exports) as it is recorded — the hook the differential scrub and
	// workload harnesses use to collect per-job outcomes without polling.
	// It runs on the job's goroutine and must not block.
	OnJobDone func(JobReport)

	// Logger receives node diagnostics; nil discards them.
	Logger *slog.Logger
}

// Node settings that no caller sets to a second value.
const (
	cdwPoolSize         = 8               // concurrent CDW connections
	stagingSchema       = "etl_stage"     // CDW schema of staging and checkpoint tables
	uploadPrefix        = "jobs/"         // object-store namespace of staging objects
	exportPrefetch      = 8               // TDF packets buffered ahead of client requests
	streamLatencyTarget = 2 * time.Second // commit latency target of streams that set none
	// reportLogSize bounds the log of completed job reports; older reports
	// are evicted and counted in the etlvirt_reports_dropped gauge.
	reportLogSize    = 1024
	traceRetention   = 64   // finished job traces kept for /jobs/{id}/trace
	traceSpansPerJob = 8192 // span cap per job timeline; later spans are dropped and counted
	eventLogSize     = 1024 // entries in the /events ring before the oldest is overwritten
)

func (c Config) withDefaults() Config {
	if c.Converters <= 0 {
		c.Converters = runtime.GOMAXPROCS(0)
	}
	if c.FileWriters <= 0 {
		c.FileWriters = 2
	}
	if c.Credits <= 0 {
		c.Credits = 4 * c.Converters
	}
	if c.FileSizeThreshold <= 0 {
		c.FileSizeThreshold = 4 << 20
	}
	if c.CopyBatchFiles <= 0 {
		c.CopyBatchFiles = 4
	}
	if c.UploadParallelism <= 0 {
		c.UploadParallelism = 4
	}
	if c.ExportChunkRows <= 0 {
		c.ExportChunkRows = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(discard{}, nil))
	}
	return c
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Node is one virtualizer instance.
type Node struct {
	cfg     Config
	credits *credit.Manager
	pool    *cdwnet.Pool
	store   cloudstore.Store
	loader  *cloudstore.BulkLoader
	log     *slog.Logger

	ln     net.Listener
	connWG sync.WaitGroup

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	imports  map[uint64]*importJob
	exports  map[uint64]*exportJob
	streams  map[uint64]*streamJob
	debugSrv *http.Server
	closed   bool

	nextJob     atomic.Uint64
	nextSession atomic.Uint32

	reports reportLog
	nm      *nodeMetrics
	tracer  *obs.Tracer
	events  *obs.EventLog

	retry  *retrier.Retrier
	budget *retrier.Budget
	inj    *faultinject.Injector // nil when fault injection is off

	// ctx is canceled on Close, stopping retry backoff waits and further
	// recovery attempts so teardown is not delayed by in-flight retries.
	ctx       context.Context
	ctxCancel context.CancelFunc
}

// NewNode builds a node. store is the cloud object store shared with the
// CDW (uploads land there; COPY reads from there).
func NewNode(cfg Config, store cloudstore.Store) *Node {
	cfg = cfg.withDefaults()
	if cfg.FaultInjector != nil {
		// The virtualizer's own store traffic goes through the injector; the
		// CDW engine keeps its direct handle (its faults are injected on its
		// side via the daemon flag).
		store = faultinject.NewStore(cfg.FaultInjector, store)
	}
	n := &Node{
		cfg:     cfg,
		credits: credit.NewManager(cfg.Credits, cfg.MemBudget),
		store:   store,
		loader:  cloudstore.NewBulkLoader(store, cloudstore.LoaderConfig{PutTimeout: cfg.PutTimeout}),
		log:     cfg.Logger,
		conns:   make(map[net.Conn]struct{}),
		imports: make(map[uint64]*importJob),
		exports: make(map[uint64]*exportJob),
		streams: make(map[uint64]*streamJob),
		tracer:  obs.NewTracer(traceRetention, traceSpansPerJob),
		events:  obs.NewEventLog(eventLogSize),
		inj:     cfg.FaultInjector,
		reports: reportLog{cap: reportLogSize},
	}
	n.tracer.SetProc("etlvirtd")
	if cfg.EventSink != nil {
		n.events.SetSink(cfg.EventSink)
	}
	n.ctx, n.ctxCancel = context.WithCancel(context.Background())
	n.budget = retrier.NewBudget(cfg.RetryBudget)
	n.retry = &retrier.Retrier{
		Policy: retrier.Policy{
			MaxAttempts: cfg.RetryMaxAttempts,
			BaseDelay:   cfg.RetryBaseDelay,
			MaxDelay:    cfg.RetryMaxDelay,
		}.WithDefaults(),
		Budget: n.budget,
	}
	pc := cdwnet.PoolConfig{Timeout: cfg.CDWTimeout, Retrier: n.retry, Observer: n.observeCDW}
	if n.inj != nil {
		inj := n.inj
		pc.FaultHook = func(op string) error { return inj.Fault("cdw." + op) }
		inj.SetOnInject(func(op string, ferr *faultinject.Error) {
			n.events.Add(obs.Event{Type: "fault", Msg: op, Attrs: map[string]any{
				"class": string(ferr.Class),
			}})
		})
	}
	n.pool = cdwnet.NewPoolWith(cfg.CDWAddr, cdwPoolSize, pc)
	n.nm = newNodeMetrics(n)
	return n
}

// observeCDW is the pool's observer: every round trip feeds the CDW request
// metrics, and one made under a job's context becomes two spans on that
// job's timeline: the virtualizer-side round trip under the job's root, and
// a cdwd-side engine span nested inside it, so the stitched timeline splits
// wire time from engine time across processes.
func (n *Node) observeCDW(rt cdwnet.RoundTrip) {
	m := n.nm
	m.cdwRequests.Inc()
	if rt.Err != nil {
		m.cdwErrors.Inc()
	}
	m.cdwReqLat.ObserveDuration(rt.Dur)
	if rt.Job == nil {
		return
	}
	span := obs.Span{ID: obs.NewSpanID(), Stage: "cdw_" + rt.Op, Worker: "cdw", Start: rt.Start, Dur: rt.Dur, Err: errString(rt.Err)}
	rt.Job.Add(span)
	if d := rt.Dur.Nanoseconds(); rt.EngineNS > 0 && rt.EngineNS <= d {
		// Engine time sits somewhere inside the round trip; center it so
		// the nested span renders inside its parent without claiming
		// per-direction wire asymmetry we cannot measure.
		rt.Job.Add(obs.Span{
			ID: obs.NewSpanID(), Parent: span.ID, Proc: "cdwd",
			Stage: "engine", Worker: "engine",
			Start: rt.Start.Add(time.Duration(d-rt.EngineNS) / 2),
			Dur:   time.Duration(rt.EngineNS),
		})
	}
}

// Credits exposes the node's CreditManager statistics.
func (n *Node) Credits() credit.Stats { return n.credits.Stats() }

// Reports returns the reports of all completed jobs.
func (n *Node) Reports() []JobReport { return n.reports.all() }

// Metrics exposes the node's live metrics registry — the same series
// /metrics serves — so embedders and the benchmark harness can snapshot
// per-stage telemetry programmatically.
func (n *Node) Metrics() *obs.Registry { return n.nm.reg }

// Tracer exposes the node's per-job span tracer.
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Events exposes the node's structured event log — the same ring /events
// drains.
func (n *Node) Events() *obs.EventLog { return n.events }

// Listen binds addr and starts the Alpha accept loop, returning the bound
// address.
func (n *Node) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.ln = ln
	go n.acceptLoop()
	return ln.Addr().String(), nil
}

// Close shuts the node down: listener, live connections, CDW pool. Retry
// backoff waits in flight are canceled so teardown is not delayed.
func (n *Node) Close() error {
	n.ctxCancel()
	n.mu.Lock()
	n.closed = true
	for c := range n.conns {
		c.Close()
	}
	dbg := n.debugSrv
	n.mu.Unlock()
	if dbg != nil {
		dbg.Close()
	}
	var err error
	if n.ln != nil {
		err = n.ln.Close()
	}
	n.connWG.Wait()
	n.pool.Close()
	return err
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.connWG.Add(1)
		// Bounded by the connection, not a context: Close() closes every
		// live conn, which unblocks serveConn's reads and ends the goroutine.
		go func() {
			defer n.connWG.Done()
			n.serveConn(conn)
			n.mu.Lock()
			delete(n.conns, conn)
			n.mu.Unlock()
		}()
	}
}

// translator builds the node's non-job SQL translator.
func (n *Node) translator() *sqlxlate.Translator {
	return &sqlxlate.Translator{SchemaMap: n.cfg.SchemaMap}
}

// handleRunSQL is the Beta path for ad-hoc statements: translate, execute,
// re-encode results in the legacy format.
func (n *Node) handleRunSQL(c *wire.Conn, session uint32, m *wire.RunSQL) error {
	cdwSQL, err := n.translator().Translate(m.SQL)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: fmt.Sprintf("cross-compilation failed: %v", err)})
	}
	stmt, err := sqlparse.Parse(cdwSQL, sqlparse.DialectCDW)
	if err != nil {
		return c.Send(session, &wire.Failure{Code: 3706, Message: err.Error()})
	}
	if _, isSelect := stmt.(*sqlparse.SelectStmt); !isSelect {
		activity, err := n.pool.Write(n.ctx, cdwnet.Stmt{SQL: cdwSQL})
		if err != nil {
			return sendEngineFailure(c, session, err)
		}
		return c.Send(session, &wire.StmtSuccess{ActivityCount: uint64(activity)})
	}
	cols, rows, err := n.pool.Read(n.ctx, cdwnet.Stmt{SQL: cdwSQL})
	if err != nil {
		return sendEngineFailure(c, session, err)
	}
	layout := layoutFromCols("result", cols)
	if err := c.Send(session, &wire.RecordHeader{Layout: layout}); err != nil {
		return err
	}
	const batch = 1024
	for start := 0; start < len(rows); start += batch {
		end := start + batch
		if end > len(rows) {
			end = len(rows)
		}
		payload, err := encodeRowsLegacy(rows[start:end], layout, wire.FormatIndicator, 0)
		if err != nil {
			return c.Send(session, &wire.Failure{Code: 1000, Message: err.Error()})
		}
		if err := c.Send(session, &wire.Records{Count: uint32(end - start), Payload: payload}); err != nil {
			return err
		}
	}
	return c.Send(session, &wire.EndStatement{})
}

func sendEngineFailure(c *wire.Conn, session uint32, err error) error {
	code := uint32(1000)
	if ce, ok := err.(*cdw.Error); ok {
		code = uint32(ce.Code)
	}
	return c.Send(session, &wire.Failure{Code: code, Message: err.Error()})
}
