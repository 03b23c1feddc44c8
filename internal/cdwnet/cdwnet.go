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
// everything. A request carries one Stmt: SQL text, or a range template and
// its two bounds (sqlxlate.RangeStmt.Template); each server connection parses
// a template once and keeps it in a small cache (template.go). A Pool sends a
// Stmt through Write, Read or Open, each with its own retry contract.
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

	// timeout and faultHook are the pool's PoolConfig.Timeout and
	// PoolConfig.FaultHook, copied in at dial.
	timeout   time.Duration
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

// Exec runs a statement and drains any rows, returning the activity count.
func (c *Client) Exec(sql string) (int64, error) {
	return c.exec(&request{SQL: sql})
}

// exec sends req and drains any rows, returning the activity count.
func (c *Client) exec(req *request) (int64, error) {
	cur, err := c.query(req)
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
	return c.queryAll(&request{SQL: sql})
}

// queryAll sends req and materializes all rows.
func (c *Client) queryAll(req *request) ([]ResultCol, [][]cdw.Datum, error) {
	cur, err := c.query(req)
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
	return c.describe(&request{Describe: table})
}

// describe sends a Describe request.
func (c *Client) describe(req *request) (*TableMeta, error) {
	if c.cursorOpen {
		return nil, errors.New("cdwnet: previous cursor still open")
	}
	if err := c.fault("describe"); err != nil {
		return nil, err
	}
	hdr, err := c.roundTrip(req)
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
	client *Client
	// pool is set on a cursor from Pool.Open: Close hands client back to it.
	pool     *Pool
	cols     []ResultCol
	activity int64
	finished bool
}

// Query sends sql and returns a cursor over its result. fetchSize <= 0 uses
// the default.
func (c *Client) Query(sql string, fetchSize int) (*Cursor, error) {
	return c.query(&request{SQL: sql, FetchSize: fetchSize})
}

// query sends req and returns a cursor over its result.
func (c *Client) query(req *request) (*Cursor, error) {
	if c.cursorOpen {
		return nil, errors.New("cdwnet: previous cursor still open")
	}
	if err := c.fault("query"); err != nil {
		return nil, err
	}
	hdr, err := c.roundTrip(req)
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

// Close ends the cursor. A cursor from Client.Query is drained so the
// connection can be reused. A cursor from Pool.Open hands its connection
// back to the pool, which discards it if rows are left unread: the rest of
// an abandoned result is never fetched.
func (cur *Cursor) Close() error {
	if p := cur.pool; p != nil {
		cur.pool, cur.finished = nil, true
		p.Put(cur.client)
		return nil
	}
	for !cur.finished {
		if _, _, err := cur.NextBatch(); err != nil {
			return err
		}
	}
	return nil
}

// Stmt is one statement for the CDW: SQL text, or with Range set a range
// template (sqlxlate.RangeStmt.Template) whose bind markers take Lo and Hi.
// The server parses a template once per connection; the statement it runs
// is the one RangeStmt.SQL(Lo, Hi) would print.
type Stmt struct {
	SQL    string
	Range  bool
	Lo, Hi int64
}

// Range is the Stmt for template bound to rows lo..hi.
func Range(template string, lo, hi int64) Stmt {
	return Stmt{SQL: template, Range: true, Lo: lo, Hi: hi}
}

// request maps s onto the wire request.
func (s Stmt) request(fetch int) request {
	return request{SQL: s.SQL, Range: s.Range, Lo: s.Lo, Hi: s.Hi, FetchSize: fetch}
}

// PoolConfig is everything a Pool is configured with, fixed at construction.
type PoolConfig struct {
	// Timeout bounds each network operation on a pooled connection (request
	// send, header recv, every batch recv); zero disables the bound.
	Timeout time.Duration
	// FaultHook, when non-nil, is consulted before each round trip with the
	// operation kind ("query", "describe", "fetch"); a non-nil return is a
	// transport failure before anything hits the wire.
	FaultHook func(op string) error
	// Retrier, when non-nil, retries transient transport failures on a fresh
	// connection, under the contract Write, Read and Open each state.
	Retrier *retrier.Retrier
	// Observer, when non-nil, is called once per pooled round trip.
	Observer func(RoundTrip)
}

// RoundTrip is what the pool's observer learns of one pooled round trip.
type RoundTrip struct {
	// Op is "exec" (Write), "query" (Read and Open) or "describe".
	Op string
	// Job is the trace the call's context carried (obs.WithJob), nil if none.
	Job *obs.JobTrace
	// Start and Dur span the whole call, connection checkout and retries
	// included.
	Start time.Time
	Dur   time.Duration
	// EngineNS is the server-reported engine latency of the last attempt.
	EngineNS int64
	Err      error
}

// call is the contract of one way to send a request: how it reports itself,
// whether a transient failure after the request hit the wire may be retried,
// and whether its connection stays pinned to an open cursor.
type call struct {
	op, retryOp string
	idempotent  bool
	pin         bool
}

var (
	// writeCall may carry DML, so only failures before the request hit the
	// wire (NotSent: injected faults, dial errors) are retried: a real
	// deadline can fire after the engine executed the statement, and a
	// blind retry would double-apply it.
	writeCall = call{op: "exec", retryOp: "cdw.exec"}
	// readCall and openCall do not change state, so any transient failure
	// of the request is retried.
	readCall     = call{op: "query", retryOp: "cdw.query", idempotent: true}
	openCall     = call{op: "query", retryOp: "cdw.query", idempotent: true, pin: true}
	describeCall = call{op: "describe", retryOp: "cdw.describe", idempotent: true}
)

// Pool is a fixed-size pool of CDW client connections, shared by the
// virtualizer's concurrent jobs. Connections are dialed lazily.
type Pool struct {
	addr string
	// conns holds idle healthy connections; slots holds dial-capacity
	// tokens. Every live connection owns exactly one token, taken at dial
	// and returned by discard, so a Get blocked on capacity wakes up as
	// soon as a broken connection is discarded.
	conns chan *Client
	slots chan struct{}
	cfg   PoolConfig
	// ctx is the SetContext base of the context-free wrappers.
	ctx context.Context
}

// NewPool creates an unconfigured pool of up to size connections to addr.
func NewPool(addr string, size int) *Pool { return NewPoolWith(addr, size, PoolConfig{}) }

// NewPoolWith creates a pool of up to size connections to addr, configured
// by cfg.
func NewPoolWith(addr string, size int, cfg PoolConfig) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{addr: addr, conns: make(chan *Client, size), slots: make(chan struct{}, size), cfg: cfg}
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
		c.timeout, c.faultHook = p.cfg.Timeout, p.cfg.FaultHook
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

// Write sends s, which may carry DML, and returns its activity count. Under
// the pool's retrier only failures before the request hit the wire are
// retried. ctx bounds the retries, and the trace it carries (obs.WithJob)
// is propagated to the server and handed to the observer.
func (p *Pool) Write(ctx context.Context, s Stmt) (int64, error) {
	var n int64
	err := p.roundTrip(ctx, writeCall, s.request(0), func(c *Client, req *request) (err error) {
		n, err = c.exec(req)
		return err
	})
	return n, err
}

// Read sends s, which must not change state, and returns all its rows. Any
// transient failure is retried; ctx is used as in Write.
func (p *Pool) Read(ctx context.Context, s Stmt) ([]ResultCol, [][]cdw.Datum, error) {
	var cols []ResultCol
	var rows [][]cdw.Datum
	err := p.roundTrip(ctx, readCall, s.request(0), func(c *Client, req *request) (err error) {
		cols, rows, err = c.queryAll(req)
		return err
	})
	return cols, rows, err
}

// Open sends s, which must not change state, and returns a cursor over its
// rows in batches of fetch (<= 0 selects DefaultFetchSize). The cursor pins
// one connection until Close. Opening retries and reports like Read; the
// fetches that follow are neither retried nor observed.
func (p *Pool) Open(ctx context.Context, s Stmt, fetch int) (*Cursor, error) {
	var cur *Cursor
	err := p.roundTrip(ctx, openCall, s.request(fetch), func(c *Client, req *request) (err error) {
		cur, err = c.query(req)
		return err
	})
	if err != nil {
		return nil, err
	}
	cur.pool = p
	return cur, nil
}

// Describe fetches table metadata ("schema.name" or "name"), retried like
// Read under the SetContext base context.
func (p *Pool) Describe(table string) (*TableMeta, error) {
	var meta *TableMeta
	err := p.roundTrip(p.context(), describeCall, request{Describe: table}, func(c *Client, req *request) (err error) {
		meta, err = c.describe(req)
		return err
	})
	return meta, err
}

// Exec is Write of SQL text under the SetContext base context. It is kept
// for the benchmark's replay only, until that replay moves to Write.
func (p *Pool) Exec(sql string) (int64, error) {
	return p.Write(p.context(), Stmt{SQL: sql})
}

// QueryAll is Read of SQL text under the SetContext base context. It is
// kept for the benchmark's replay only, until that replay moves to Read.
func (p *Pool) QueryAll(sql string) ([]ResultCol, [][]cdw.Datum, error) {
	return p.Read(p.context(), Stmt{SQL: sql})
}

// SetContext sets the base context of Exec, QueryAll and Describe: their
// retries stop once it is canceled. Call it before the pool is shared. It
// is kept for the benchmark's replay only, until that replay passes its
// context to Write and Read.
func (p *Pool) SetContext(ctx context.Context) { p.ctx = ctx }

func (p *Pool) context() context.Context {
	if p.ctx == nil {
		// A pool used without SetContext (tests, standalone tools) falls
		// back to an unbounded context; node I/O passes its own context to
		// Write, Read and Open.
		return context.Background() //nolint:ctxbg // context-free wrappers' fallback, not node-owned I/O
	}
	return p.ctx
}

// roundTrip borrows a connection, sends req on it through fn, and returns
// it — Put discards it if fn broke it — unless k pins it to the cursor fn
// opened. With a retrier configured, transient transport failures are
// retried on a fresh connection under k's contract. Remote engine errors
// are never retried, so legacy per-tuple error semantics are preserved.
func (p *Pool) roundTrip(ctx context.Context, k call, req request, fn func(*Client, *request) error) error {
	start := time.Now()
	job := obs.JobFrom(ctx)
	tc := job.ChildContext()
	req.TraceID, req.SpanID, req.Sampled = tc.TraceID, tc.SpanID, tc.Sampled
	var engineNS int64
	attempt := func() error {
		c, err := p.Get()
		if err != nil {
			return err
		}
		err = fn(c, &req)
		engineNS = c.lastEngineNS
		if err != nil || !k.pin {
			p.Put(c)
		}
		return err
	}
	var err error
	if r := p.cfg.Retrier; r != nil {
		base := r.Retryable
		if base == nil {
			base = retrier.IsTransient
		}
		rr := *r
		rr.Retryable = func(err error) bool {
			return base(err) && (k.idempotent || NotSent(err))
		}
		err = rr.Do(ctx, k.retryOp, attempt)
	} else {
		err = attempt()
	}
	if p.cfg.Observer != nil {
		p.cfg.Observer(RoundTrip{Op: k.op, Job: job, Start: start, Dur: time.Since(start), EngineNS: engineNS, Err: err})
	}
	return err
}
