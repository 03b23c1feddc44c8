// Package cdwnet provides the network interface of the CDW: a TCP server in
// front of a cdw.Engine and a client with batched result fetching. The
// virtualizer's Beta process and TDFCursor sit on top of this client (§3).
//
// The protocol is a stream of length-prefixed binary frames (codec.go), whose
// messages are stated against the primitives of internal/bincodec, which DWP
// shares: the client sends a request, the server answers with a response
// header followed by zero or more row batches. Each connection reuses one
// body buffer from frame to frame, so nothing decoded may alias it: strings
// and KBytes values are copied out of the body, and the caller owns every
// row it is handed. Batched fetch is what lets the TDFCursor
// retrieve results "on demand" in chunks rather than materializing
// everything. A request carries either SQL text or a range template and its
// two bounds (sqlxlate.RangeStmt.Template); each server connection parses a
// template once and keeps it in a small cache (template.go).
package cdwnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/obs"
	"etlvirt/internal/retrier"
	"etlvirt/internal/sqlparse"
)

// DefaultFetchSize is the row-batch size used when a query does not specify
// one.
const DefaultFetchSize = 4096

type request struct {
	// SQL is the statement, or with Range set a range template whose bind
	// markers take Lo and Hi.
	SQL       string
	Range     bool
	Lo, Hi    int64
	FetchSize int
	// Describe, when non-empty, requests table metadata ("schema.name" or
	// "name") instead of executing SQL.
	Describe string
	// Distributed trace context propagated from the virtualizer: the trace
	// this request belongs to and the span it is parented under. Zero TraceID
	// means untraced.
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// trace reassembles the request's trace context.
func (r *request) trace() obs.TraceContext {
	return obs.TraceContext{TraceID: r.TraceID, SpanID: r.SpanID, Sampled: r.Sampled}
}

// TableMeta mirrors cdw.TableMeta on the wire.
type TableMeta struct {
	Columns    []ResultCol
	NotNull    []bool
	Defaults   []string
	PrimaryKey []string
	Unique     [][]string
	Rows       int
}

type responseHeader struct {
	ErrCode  int
	ErrMsg   string
	ErrField string
	ErrRow   int64
	Columns  []ResultCol
	Activity int64
	HasRows  bool
	Meta     *TableMeta
	// EngineNanos is the server-side engine latency for this request, so the
	// client can split a round trip into network and engine time.
	EngineNanos int64
}

type rowBatch struct {
	Rows [][]cdw.Datum
	Last bool
}

// Server serves a cdw.Engine over TCP.
type Server struct {
	eng *cdw.Engine
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	observer func(op string, d time.Duration, errCode int)
	events   *obs.EventLog
	// serving counts the accept loop and every connection's goroutine;
	// Close waits for them.
	serving sync.WaitGroup
}

// SetEventLog records one event per served request (type "cdw_request") into
// ev, carrying the propagated trace ID so engine-side activity can be joined
// to the distributed trace. Nil disables recording.
func (s *Server) SetEventLog(ev *obs.EventLog) {
	s.mu.Lock()
	s.events = ev
	s.mu.Unlock()
}

func (s *Server) event(op string, tc obs.TraceContext, d time.Duration, errCode int) {
	s.mu.Lock()
	ev := s.events
	s.mu.Unlock()
	if ev == nil {
		return
	}
	e := obs.Event{
		Type: "cdw_request",
		Msg:  op,
		Attrs: map[string]any{
			"dur_ns":   d.Nanoseconds(),
			"err_code": errCode,
		},
	}
	if tc.Valid() {
		e.TraceID = obs.FormatTraceID(tc.TraceID)
	}
	ev.Add(e)
}

// SetObserver installs a callback invoked once per served request with the
// request kind ("exec" or "describe"), its engine latency, and the engine
// error code (0 on success). cdwd wires this into its request metrics.
func (s *Server) SetObserver(fn func(op string, d time.Duration, errCode int)) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

func (s *Server) observe(op string, start time.Time, errCode int) {
	s.mu.Lock()
	fn := s.observer
	s.mu.Unlock()
	if fn != nil {
		fn(op, time.Since(start), errCode)
	}
}

// NewServer returns an unstarted server for eng.
func NewServer(eng *cdw.Engine) *Server {
	return &Server{eng: eng, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting connections.
// It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.serving.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener, closes active connections and waits until every
// connection's goroutine has returned.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.serving.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.serving.Done()
	for {
		conn, err := s.ln.Accept()
		s.mu.Lock()
		closed := s.closed
		if err == nil && !closed {
			s.conns[conn] = struct{}{}
			s.serving.Add(1)
		}
		s.mu.Unlock()
		switch {
		case closed:
			// A connection accepted while Close runs is closed here, so
			// no goroutine is left reading from it.
			if err == nil {
				conn.Close()
			}
			return
		case err != nil:
			continue
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.serving.Done()
	}()
	fc := newFrameConn(conn)
	var tmpls templateCache
	for {
		var req request
		if err := fc.recv(&req); err != nil {
			return // disconnect, or a frame the codec rejects
		}
		if req.Describe != "" {
			start := time.Now()
			if err := s.serveDescribe(&fc, req.Describe); err != nil {
				return
			}
			s.observe("describe", start, 0)
			s.event("describe", req.trace(), time.Since(start), 0)
			continue
		}
		start := time.Now()
		res, err := s.exec(&tmpls, &req)
		engineDur := time.Since(start)
		var hdr responseHeader
		if err != nil {
			ee := cdw.AsError(err)
			hdr = responseHeader{ErrCode: ee.Code, ErrMsg: ee.Msg, ErrField: ee.Field, ErrRow: ee.Row}
		} else {
			hdr.Activity = res.Activity
			for _, c := range res.Columns {
				hdr.Columns = append(hdr.Columns, ResultCol(c))
			}
			hdr.HasRows = len(res.Columns) > 0
		}
		hdr.EngineNanos = engineDur.Nanoseconds()
		s.observe("exec", start, hdr.ErrCode)
		s.event("exec", req.trace(), engineDur, hdr.ErrCode)
		if err := respond(&fc, &hdr, res, req.FetchSize); err != nil {
			return
		}
	}
}

// exec runs one request's statement: SQL text is parsed afresh, a range
// template comes from the connection's cache with its slots bound.
func (s *Server) exec(tmpls *templateCache, req *request) (*cdw.Result, error) {
	if !req.Range {
		return s.eng.ExecSQL(req.SQL)
	}
	t, err := tmpls.get(req.SQL)
	if err != nil {
		return nil, err
	}
	t.slots[0].Int, t.slots[1].Int = req.Lo, req.Hi
	return s.eng.Exec(t.stmt)
}

// respond writes the header and, for a successful statement with a result
// schema, its rows in batches of fetch, then flushes the whole response at
// once.
func respond(fc *frameConn, hdr *responseHeader, res *cdw.Result, fetch int) error {
	if err := fc.send(hdr); err != nil {
		return err
	}
	if hdr.ErrCode == 0 && hdr.HasRows {
		if fetch <= 0 {
			fetch = DefaultFetchSize
		}
		rows := res.Rows
		for {
			n := min(len(rows), fetch)
			batch := rowBatch{Rows: rows[:n], Last: n == len(rows)}
			rows = rows[n:]
			if err := fc.send(&batch); err != nil {
				return err
			}
			if batch.Last {
				break
			}
		}
	}
	return fc.bw.Flush()
}

func (s *Server) serveDescribe(fc *frameConn, name string) error {
	tn := sqlparse.ParseTableName(name)
	start := time.Now()
	meta, err := s.eng.Describe(tn)
	var hdr responseHeader
	if err != nil {
		ee := cdw.AsError(err)
		hdr = responseHeader{ErrCode: ee.Code, ErrMsg: ee.Msg}
	} else {
		m := &TableMeta{
			NotNull:    meta.NotNull,
			Defaults:   meta.Defaults,
			PrimaryKey: meta.PrimaryKey,
			Unique:     meta.Unique,
			Rows:       meta.Rows,
		}
		for _, c := range meta.Columns {
			m.Columns = append(m.Columns, ResultCol{Name: c.Name, Type: c.Type})
		}
		hdr.Meta = m
	}
	hdr.EngineNanos = time.Since(start).Nanoseconds()
	if err := fc.send(&hdr); err != nil {
		return err
	}
	return fc.bw.Flush()
}

// Client is one CDW connection. A Client is not safe for concurrent use; the
// virtualizer maintains a Pool.
type Client struct {
	fc frameConn

	// open cursor state
	cursorOpen bool

	// broken marks a connection whose last round trip hit a transport
	// failure (send/recv error, deadline, torn or undecodable frame, or
	// injected fault). The frame stream may be desynchronized, so the
	// connection must be discarded, never recycled — Pool.Put enforces this.
	broken bool

	// timeout, when > 0, bounds each network operation (request send,
	// header recv, and every batch recv) with a connection deadline.
	timeout time.Duration

	// faultHook, when non-nil, is consulted before each round trip with
	// the operation kind ("query", "describe", "fetch"); a non-nil return
	// is surfaced as a transport failure before anything hits the wire.
	faultHook func(op string) error

	// lastEngineNS is the engine latency reported by the most recent
	// response header, splitting a round trip into network and engine time.
	lastEngineNS int64
}

// Dial connects to a CDW server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{fc: newFrameConn(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.fc.conn.Close() }

// SetTimeout bounds each subsequent network operation; zero disables the
// bound.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetFaultHook installs the fault-injection hook consulted before each round
// trip.
func (c *Client) SetFaultHook(fn func(op string) error) { c.faultHook = fn }

// Broken reports whether the connection suffered a transport failure and
// must not be reused.
func (c *Client) Broken() bool { return c.broken }

// fault consults the injection hook; an injected fault poisons the
// connection exactly like a real transport failure so the pool's discard
// path is exercised. The error is tagged NotSent — injected faults fire
// before anything hits the wire, so retrying them cannot re-execute a
// statement.
func (c *Client) fault(op string) error {
	if c.faultHook == nil {
		return nil
	}
	if err := c.faultHook(op); err != nil {
		c.broken = true
		return &notSentError{err: fmt.Errorf("cdwnet: %s: %w", op, err)}
	}
	return nil
}

// armDeadline starts the per-operation timeout window.
func (c *Client) armDeadline() {
	if c.timeout > 0 {
		_ = c.fc.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// notSentError tags a failure that occurred before the request hit the wire
// (an injected fault or a dial failure). Only these are safe for the pool to
// retry blindly: once bytes have been sent, the engine may have executed the
// statement even though the client saw a transport error, and re-running a
// non-idempotent statement would double-apply it.
type notSentError struct{ err error }

func (e *notSentError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying failure so Transient()/Timeout()
// classification still works through errors.As.
func (e *notSentError) Unwrap() error { return e.err }

func (e *notSentError) notSent() {}

// NotSent reports whether err happened before the request reached the wire,
// making a retry safe even for non-idempotent statements.
func NotSent(err error) bool {
	var ns interface{ notSent() }
	return errors.As(err, &ns)
}

// remoteError reconstructs the engine error from a response header.
func remoteError(hdr *responseHeader) error {
	if hdr.ErrCode == 0 {
		return nil
	}
	return &cdw.Error{Code: hdr.ErrCode, Msg: hdr.ErrMsg, Field: hdr.ErrField, Row: hdr.ErrRow}
}

// EngineNanos reports the server-side engine latency of the most recent
// round trip, 0 when unknown.
func (c *Client) EngineNanos() int64 { return c.lastEngineNS }

// Exec runs a statement and drains any rows, returning the activity count.
func (c *Client) Exec(sql string) (int64, error) {
	return c.ExecT(sql, obs.TraceContext{})
}

// ExecT is Exec with a trace context propagated to the server.
func (c *Client) ExecT(sql string, tc obs.TraceContext) (int64, error) {
	return c.exec(request{SQL: sql}, tc)
}

// exec sends req and drains any rows, returning the activity count.
func (c *Client) exec(req request, tc obs.TraceContext) (int64, error) {
	cur, err := c.query(req, tc)
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	for {
		_, ok, err := cur.NextBatch()
		if err != nil {
			return 0, err
		}
		if !ok {
			return cur.Activity(), nil
		}
	}
}

// QueryAll runs a query and materializes all rows.
func (c *Client) QueryAll(sql string) ([]ResultCol, [][]cdw.Datum, error) {
	return c.QueryAllT(sql, obs.TraceContext{})
}

// QueryAllT is QueryAll with a trace context propagated to the server.
func (c *Client) QueryAllT(sql string, tc obs.TraceContext) ([]ResultCol, [][]cdw.Datum, error) {
	return c.queryAll(request{SQL: sql}, tc)
}

// queryAll sends req and materializes all rows.
func (c *Client) queryAll(req request, tc obs.TraceContext) ([]ResultCol, [][]cdw.Datum, error) {
	cur, err := c.query(req, tc)
	if err != nil {
		return nil, nil, err
	}
	defer cur.Close()
	var rows [][]cdw.Datum
	for {
		batch, ok, err := cur.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return cur.Columns(), rows, nil
		}
		rows = append(rows, batch...)
	}
}

// ResultCol mirrors cdw.ResultCol for client consumers.
type ResultCol struct {
	Name string
	Type cdw.ColType
}

// Describe fetches table metadata ("schema.name" or "name").
func (c *Client) Describe(table string) (*TableMeta, error) {
	if c.cursorOpen {
		return nil, errors.New("cdwnet: previous cursor still open")
	}
	if err := c.fault("describe"); err != nil {
		return nil, err
	}
	hdr, err := c.roundTrip(&request{Describe: table})
	if err != nil {
		return nil, err
	}
	return hdr.Meta, nil
}

// roundTrip sends req, flushing it at once, and reads the response header.
// A transport or codec failure breaks the connection; an engine error comes
// back as the header's remote error.
func (c *Client) roundTrip(req *request) (*responseHeader, error) {
	c.armDeadline()
	err := c.fc.send(req)
	if err == nil {
		err = c.fc.bw.Flush()
	}
	if err != nil {
		c.broken = true
		return nil, fmt.Errorf("cdwnet: send: %w", err)
	}
	var hdr responseHeader
	if err := c.fc.recv(&hdr); err != nil {
		c.broken = true
		return nil, fmt.Errorf("cdwnet: recv: %w", err)
	}
	c.lastEngineNS = hdr.EngineNanos
	return &hdr, remoteError(&hdr)
}

// Cursor streams the result of one query in batches.
type Cursor struct {
	client   *Client
	cols     []ResultCol
	activity int64
	finished bool
}

// Query sends sql and returns a cursor over its result. fetchSize <= 0 uses
// the default.
func (c *Client) Query(sql string, fetchSize int) (*Cursor, error) {
	return c.QueryT(sql, fetchSize, obs.TraceContext{})
}

// QueryT is Query with a trace context propagated to the server.
func (c *Client) QueryT(sql string, fetchSize int, tc obs.TraceContext) (*Cursor, error) {
	return c.query(request{SQL: sql, FetchSize: fetchSize}, tc)
}

// query sends req under tc and returns a cursor over its result.
func (c *Client) query(req request, tc obs.TraceContext) (*Cursor, error) {
	if c.cursorOpen {
		return nil, errors.New("cdwnet: previous cursor still open")
	}
	if err := c.fault("query"); err != nil {
		return nil, err
	}
	req.TraceID, req.SpanID, req.Sampled = tc.TraceID, tc.SpanID, tc.Sampled
	hdr, err := c.roundTrip(&req)
	if err != nil {
		return nil, err
	}
	cur := &Cursor{client: c, activity: hdr.Activity, cols: hdr.Columns}
	if hdr.HasRows {
		c.cursorOpen = true
	} else {
		cur.finished = true
	}
	return cur, nil
}

// Columns returns the result schema.
func (cur *Cursor) Columns() []ResultCol { return cur.cols }

// Activity returns the statement's activity count.
func (cur *Cursor) Activity() int64 { return cur.activity }

// NextBatch returns the next batch of rows. ok is false once the result is
// exhausted.
func (cur *Cursor) NextBatch() ([][]cdw.Datum, bool, error) {
	if cur.finished {
		return nil, false, nil
	}
	if err := cur.client.fault("fetch"); err != nil {
		cur.finished = true
		cur.client.cursorOpen = false
		return nil, false, err
	}
	cur.client.armDeadline()
	var batch rowBatch
	if err := cur.client.fc.recv(&batch); err != nil {
		cur.finished = true
		cur.client.cursorOpen = false
		cur.client.broken = true
		if err == io.EOF {
			return nil, false, fmt.Errorf("cdwnet: connection closed mid-result")
		}
		return nil, false, err
	}
	if batch.Last {
		cur.finished = true
		cur.client.cursorOpen = false
	}
	return batch.Rows, true, nil
}

// Close drains any remaining batches so the connection can be reused.
func (cur *Cursor) Close() error {
	for !cur.finished {
		if _, _, err := cur.NextBatch(); err != nil {
			return err
		}
	}
	return nil
}

// Pool is a fixed-size pool of CDW client connections, shared by the
// virtualizer's concurrent jobs.
type Pool struct {
	addr string
	// conns holds idle healthy connections; slots holds dial-capacity
	// tokens. Every live connection owns exactly one token, taken at dial
	// and returned by discard, so a Get blocked on capacity wakes up as
	// soon as a broken connection is discarded.
	conns chan *Client
	slots chan struct{}

	cfgMu     sync.Mutex
	ctx       context.Context
	timeout   time.Duration
	faultHook func(op string) error
	retry     *retrier.Retrier

	obsMu     sync.Mutex
	observer  func(op string, d time.Duration, err error)
	traceHook func(op string, tc obs.TraceContext, start time.Time, d time.Duration, engineNS int64, err error)
}

// SetTimeout bounds each network operation on pooled connections; zero
// disables the bound. Applies to connections dialed after the call.
func (p *Pool) SetTimeout(d time.Duration) {
	p.cfgMu.Lock()
	p.timeout = d
	p.cfgMu.Unlock()
}

// SetFaultHook installs the fault-injection hook propagated to every
// connection the pool dials.
func (p *Pool) SetFaultHook(fn func(op string) error) {
	p.cfgMu.Lock()
	p.faultHook = fn
	p.cfgMu.Unlock()
}

// SetRetrier makes Exec/Describe/QueryAll retry transient transport
// failures on a fresh connection under r's policy. Nil disables retries.
// Retries are further restricted per operation: idempotent round trips
// (Describe, QueryAll) retry any transient failure, while Exec — which may
// carry non-idempotent DML — retries only failures that happened before the
// request hit the wire (NotSent), so a deadline firing after the engine
// executed a statement can never double-apply it.
func (p *Pool) SetRetrier(r *retrier.Retrier) {
	p.cfgMu.Lock()
	p.retry = r
	p.cfgMu.Unlock()
}

// SetContext sets the base context for pooled round trips: backoff waits and
// further retry attempts stop once it is canceled, so node shutdown or job
// abort is not delayed by in-flight recovery. Nil resets to Background.
func (p *Pool) SetContext(ctx context.Context) {
	p.cfgMu.Lock()
	p.ctx = ctx
	p.cfgMu.Unlock()
}

func (p *Pool) context() context.Context {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	if p.ctx == nil {
		// Documented SetContext(nil) reset: a pool used without a node
		// (tests, standalone tools) falls back to an unbounded context.
		// Every node-owned pool has SetContext wired at construction.
		return context.Background() //nolint:ctxbg // explicit nil-reset fallback, not node-owned I/O
	}
	return p.ctx
}

func (p *Pool) clientConfig() (time.Duration, func(op string) error) {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	return p.timeout, p.faultHook
}

func (p *Pool) retrier() *retrier.Retrier {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	return p.retry
}

// SetObserver installs a callback invoked once per pooled round trip with
// the operation kind ("exec", "query" or "describe"), its end-to-end
// latency (including connection checkout), and the resulting error. The
// virtualizer's Beta path wires this into its CDW request metrics.
func (p *Pool) SetObserver(fn func(op string, d time.Duration, err error)) {
	p.obsMu.Lock()
	p.observer = fn
	p.obsMu.Unlock()
}

func (p *Pool) observe(op string, start time.Time, err error) {
	p.obsMu.Lock()
	fn := p.observer
	p.obsMu.Unlock()
	if fn != nil {
		fn(op, time.Since(start), err)
	}
}

// SetTraceHook installs a callback invoked once per traced round trip (ExecT,
// QueryAllT called with a valid context) with the operation kind, the trace
// context it ran under, its wall-clock window, the server-reported engine
// latency, and the resulting error. The virtualizer turns these into child
// spans of the calling job.
func (p *Pool) SetTraceHook(fn func(op string, tc obs.TraceContext, start time.Time, d time.Duration, engineNS int64, err error)) {
	p.obsMu.Lock()
	p.traceHook = fn
	p.obsMu.Unlock()
}

func (p *Pool) traceObserve(op string, tc obs.TraceContext, start time.Time, engineNS int64, err error) {
	if !tc.Valid() {
		return
	}
	p.obsMu.Lock()
	fn := p.traceHook
	p.obsMu.Unlock()
	if fn != nil {
		fn(op, tc, start, time.Since(start), engineNS, err)
	}
}

// NewPool creates a pool of up to size connections to addr. Connections are
// dialed lazily.
func NewPool(addr string, size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{addr: addr, conns: make(chan *Client, size), slots: make(chan struct{}, size)}
	for i := 0; i < size; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Get borrows a connection, dialing a new one if the pool has capacity. When
// the pool is at capacity it blocks until a connection is returned or a
// broken one is discarded (which frees a dial slot).
func (p *Pool) Get() (*Client, error) {
	select {
	case c := <-p.conns:
		return c, nil
	default:
	}
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.slots:
		c, err := Dial(p.addr)
		if err != nil {
			p.slots <- struct{}{}
			// Nothing hit the wire, so the failure is safe to retry.
			return nil, &notSentError{err: err}
		}
		timeout, hook := p.clientConfig()
		c.SetTimeout(timeout)
		c.SetFaultHook(hook)
		return c, nil
	}
}

// Put returns a connection to the pool. A connection whose last round trip
// hit a transport failure (Broken) — or that still has a cursor open — is
// poisoned: its frame stream may be desynchronized, so it is closed and its
// pool slot freed for a fresh dial instead of being recycled.
func (p *Pool) Put(c *Client) {
	if c == nil {
		return
	}
	if c.Broken() || c.cursorOpen {
		p.discard(c)
		return
	}
	select {
	case p.conns <- c:
	default:
		p.discard(c)
	}
}

// discard closes a connection and releases its dial slot, waking any Get
// blocked on capacity.
func (p *Pool) discard(c *Client) {
	c.Close()
	p.slots <- struct{}{}
}

// Close closes all pooled connections.
func (p *Pool) Close() {
	for {
		select {
		case c := <-p.conns:
			c.Close()
		default:
			return
		}
	}
}

// roundTrip borrows a connection, runs fn on it, and returns it — Put
// discards it if fn broke it. With a retrier installed, transient transport
// failures are retried on a fresh connection under the backoff policy —
// any transient failure for idempotent operations, but only failures that
// happened before the request hit the wire (NotSent: injected faults, dial
// errors) otherwise, because a real deadline can fire after the engine
// already executed the statement and a blind retry would double-apply
// non-idempotent DML. Remote engine errors are never retried, so legacy
// per-tuple error semantics are preserved.
func (p *Pool) roundTrip(op string, idempotent bool, fn func(c *Client) error) error {
	attempt := func() error {
		c, err := p.Get()
		if err != nil {
			return err
		}
		err = fn(c)
		p.Put(c)
		return err
	}
	if r := p.retrier(); r != nil {
		base := r.Retryable
		if base == nil {
			base = retrier.IsTransient
		}
		rr := *r
		rr.Retryable = func(err error) bool {
			return base(err) && (idempotent || NotSent(err))
		}
		return rr.Do(p.context(), "cdw."+op, attempt)
	}
	return attempt()
}

// Exec borrows a connection and runs a statement.
func (p *Pool) Exec(sql string) (int64, error) {
	return p.ExecT(sql, obs.TraceContext{})
}

// ExecT is Exec with a trace context propagated to the CDW server and
// reported to the pool's trace hook.
func (p *Pool) ExecT(sql string, tc obs.TraceContext) (int64, error) {
	return p.exec(request{SQL: sql}, tc)
}

// ExecRangeT is ExecT for a range template (sqlxlate.RangeStmt.Template)
// bound to rows lo..hi. The server parses each template once per
// connection; the statement it runs is the one SQL(lo, hi) would print.
func (p *Pool) ExecRangeT(tmpl string, lo, hi int64, tc obs.TraceContext) (int64, error) {
	return p.exec(request{SQL: tmpl, Range: true, Lo: lo, Hi: hi}, tc)
}

func (p *Pool) exec(req request, tc obs.TraceContext) (int64, error) {
	start := time.Now()
	var n int64
	var engineNS int64
	err := p.roundTrip("exec", false, func(c *Client) error {
		var cerr error
		n, cerr = c.exec(req, tc)
		engineNS = c.EngineNanos()
		return cerr
	})
	p.observe("exec", start, err)
	p.traceObserve("exec", tc, start, engineNS, err)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Describe borrows a connection and fetches table metadata.
func (p *Pool) Describe(table string) (*TableMeta, error) {
	start := time.Now()
	var meta *TableMeta
	err := p.roundTrip("describe", true, func(c *Client) error {
		var cerr error
		meta, cerr = c.Describe(table)
		return cerr
	})
	p.observe("describe", start, err)
	if err != nil {
		return nil, err
	}
	return meta, nil
}

// QueryAll borrows a connection and materializes a query result.
func (p *Pool) QueryAll(sql string) ([]ResultCol, [][]cdw.Datum, error) {
	return p.QueryAllT(sql, obs.TraceContext{})
}

// QueryAllT is QueryAll with a trace context propagated to the CDW server and
// reported to the pool's trace hook.
func (p *Pool) QueryAllT(sql string, tc obs.TraceContext) ([]ResultCol, [][]cdw.Datum, error) {
	return p.queryAll(request{SQL: sql}, tc)
}

// QueryAllRangeT is QueryAllT for a range template bound to rows lo..hi
// (see ExecRangeT).
func (p *Pool) QueryAllRangeT(tmpl string, lo, hi int64, tc obs.TraceContext) ([]ResultCol, [][]cdw.Datum, error) {
	return p.queryAll(request{SQL: tmpl, Range: true, Lo: lo, Hi: hi}, tc)
}

func (p *Pool) queryAll(req request, tc obs.TraceContext) ([]ResultCol, [][]cdw.Datum, error) {
	start := time.Now()
	var cols []ResultCol
	var rows [][]cdw.Datum
	var engineNS int64
	err := p.roundTrip("query", true, func(c *Client) error {
		var cerr error
		cols, rows, cerr = c.queryAll(req, tc)
		engineNS = c.EngineNanos()
		return cerr
	})
	p.observe("query", start, err)
	p.traceObserve("query", tc, start, engineNS, err)
	if err != nil {
		return nil, nil, err
	}
	return cols, rows, nil
}
