package cdwnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/obs"
	"etlvirt/internal/retrier"
)

func startServer(t *testing.T) (*cdw.Engine, string) {
	t.Helper()
	eng := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, addr
}

func TestClientExecAndQuery(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE t (a BIGINT, b VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
	if err != nil || n != 3 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	cols, rows, err := c.QueryAll("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Name != "a" || cols[0].Type.Kind != cdw.KInt {
		t.Errorf("cols: %+v", cols)
	}
	if len(rows) != 3 || rows[0][0].I != 1 || !rows[2][1].IsNull() {
		t.Errorf("rows: %v", rows)
	}
}

func TestRemoteErrorRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT * FROM missing")
	ee, ok := err.(*cdw.Error)
	if !ok || ee.Code != cdw.CodeNoSuchObject {
		t.Fatalf("want remote engine error, got %v", err)
	}
	// connection still usable after engine error
	if _, err := c.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestCursorBatching(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Exec("CREATE TABLE t (a BIGINT)")
	var sb []byte
	sb = append(sb, "INSERT INTO t VALUES "...)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb = append(sb, ',')
		}
		sb = append(sb, fmt.Sprintf("(%d)", i)...)
	}
	if _, err := c.Exec(string(sb)); err != nil {
		t.Fatal(err)
	}
	cur, err := c.Query("SELECT a FROM t ORDER BY a", 7)
	if err != nil {
		t.Fatal(err)
	}
	total, batches := 0, 0
	for {
		rows, ok, err := cur.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		batches++
		if len(rows) > 7 {
			t.Errorf("batch of %d exceeds fetch size", len(rows))
		}
		total += len(rows)
	}
	if total != 100 || batches < 15 {
		t.Errorf("total=%d batches=%d", total, batches)
	}
	// cursor closed; connection reusable
	if _, err := c.Exec("SELECT count(*) FROM t"); err != nil {
		t.Fatal(err)
	}
}

func TestCursorMustCloseBeforeNextQuery(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Exec("CREATE TABLE t (a BIGINT)")
	c.Exec("INSERT INTO t VALUES (1), (2), (3)")
	cur, err := c.Query("SELECT a FROM t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT a FROM t", 1); err == nil {
		t.Error("second query with open cursor accepted")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	cur2, err := c.Query("SELECT a FROM t", 1)
	if err != nil {
		t.Fatal(err)
	}
	cur2.Close()
}

func TestPoolConcurrentUse(t *testing.T) {
	_, addr := startServer(t)
	pool := NewPool(addr, 4)
	defer pool.Close()
	if _, err := pool.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := pool.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	_, rows, err := pool.QueryAll("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 32 {
		t.Errorf("count = %v", rows[0][0])
	}
}

func TestPoolSurvivesEngineErrors(t *testing.T) {
	_, addr := startServer(t)
	pool := NewPool(addr, 1)
	defer pool.Close()
	for i := 0; i < 5; i++ {
		if _, err := pool.Exec("SELECT * FROM missing"); err == nil {
			t.Fatal("missing table accepted")
		}
	}
	if _, err := pool.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatalf("pool broken after engine errors: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE s.t (
		k VARCHAR(5) NOT NULL, v DECIMAL(10,2) DEFAULT 0, d DATE,
		PRIMARY KEY (k), UNIQUE (d))`); err != nil {
		t.Fatal(err)
	}
	c.Exec("INSERT INTO s.t VALUES ('a', '1.50', '2020-01-01')")
	meta, err := c.Describe("s.t")
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Columns) != 3 || meta.Columns[0].Name != "k" {
		t.Errorf("columns: %+v", meta.Columns)
	}
	if !meta.NotNull[0] || meta.NotNull[1] {
		t.Errorf("notnull: %v", meta.NotNull)
	}
	if len(meta.Defaults) != 3 || meta.Defaults[0] != "" || meta.Defaults[1] != "0" {
		t.Errorf("defaults: %q", meta.Defaults)
	}
	if len(meta.PrimaryKey) != 1 || meta.PrimaryKey[0] != "k" {
		t.Errorf("pk: %v", meta.PrimaryKey)
	}
	if len(meta.Unique) != 1 || meta.Unique[0][0] != "d" {
		t.Errorf("unique: %v", meta.Unique)
	}
	if meta.Rows != 1 {
		t.Errorf("rows: %d", meta.Rows)
	}
	if meta.Columns[1].Type.Kind != cdw.KDecimal || meta.Columns[1].Type.Scale != 2 {
		t.Errorf("decimal type: %+v", meta.Columns[1].Type)
	}
	// missing table is a remote engine error; connection survives
	if _, err := c.Describe("nope"); err == nil {
		t.Error("missing table described")
	}
	if _, err := c.Exec("SELECT 1"); err != nil {
		t.Fatalf("connection broken after describe error: %v", err)
	}
	// pool path
	pool := NewPool(addr, 2)
	defer pool.Close()
	if _, err := pool.Describe("s.t"); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDiscardsPoisonedConnection is the regression test for the
// recycling bug: a connection whose round trip hit a transport failure must
// be discarded by Put, never handed out again.
func TestPoolDiscardsPoisonedConnection(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 1)
	defer p.Close()

	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	// Poison the connection with an injected transport fault.
	c1.SetFaultHook(func(op string) error { return fmt.Errorf("injected transport fault") })
	if _, err := c1.Exec("SELECT 1"); err == nil {
		t.Fatal("faulted round trip should error")
	}
	if !c1.Broken() {
		t.Fatal("transport failure must mark the connection broken")
	}
	p.Put(c1)

	// The pool slot must have been freed and the next Get must dial fresh —
	// returning the poisoned client here would hand out a desynchronized
	// frame stream.
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("poisoned connection was handed out again")
	}
	if _, err := c2.Exec("SELECT 1"); err != nil {
		t.Fatalf("fresh connection should work: %v", err)
	}
	p.Put(c2)
}

// TestPoolRetriesTransientFaults wires a retrier and a one-shot injected
// fault into the pool and checks the round trip succeeds transparently on a
// fresh connection.
func TestPoolRetriesTransientFaults(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 2)
	defer p.Close()

	var mu sync.Mutex
	faults := 0
	p.SetFaultHook(func(op string) error {
		mu.Lock()
		defer mu.Unlock()
		if op == "query" && faults == 0 {
			faults++
			return &faultErr{}
		}
		return nil
	})
	p.SetRetrier(&retrier.Retrier{
		Policy: retrier.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if _, err := p.Exec("CREATE TABLE rt (a BIGINT)"); err != nil {
		t.Fatalf("retried exec failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if faults != 1 {
		t.Errorf("fault fired %d times", faults)
	}
}

// TestPoolDoesNotRetryEngineErrors: remote engine errors must surface
// immediately (per-tuple error semantics depend on it).
func TestPoolDoesNotRetryEngineErrors(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 1)
	defer p.Close()
	attempts := 0
	p.SetRetrier(&retrier.Retrier{
		Policy:  retrier.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Observe: func(string, int, time.Duration, error) { attempts++ },
	})
	if _, err := p.Exec("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("engine error expected")
	}
	if attempts != 0 {
		t.Errorf("engine error was retried %d times", attempts)
	}
}

// faultErr is a transient transport failure for pool tests.
type faultErr struct{}

func (*faultErr) Error() string   { return "injected fault" }
func (*faultErr) Transient() bool { return true }

// TestClientTimeout bounds a round trip against a server that never
// responds; the deadline must fire and poison the connection.
func TestClientTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// accept and go silent: never answer
			defer conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = c.Exec("SELECT 1")
	if err == nil {
		t.Fatal("timeout expected")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want net timeout", err)
	}
	if !c.Broken() {
		t.Error("timed-out connection must be marked broken")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline did not bound the round trip: %v", elapsed)
	}
}

// startSilentServer accepts connections and never answers, so every round
// trip against it dies on the client's recv deadline — a failure that
// happens AFTER the request hit the wire.
func startSilentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
	}()
	return ln.Addr().String()
}

// TestPoolDoesNotRetryExecAfterSend: a real recv deadline fires after the
// request may have executed server-side, so the pool must NOT re-run a
// (possibly non-idempotent) Exec — a retry would double-apply DML.
func TestPoolDoesNotRetryExecAfterSend(t *testing.T) {
	addr := startSilentServer(t)
	p := NewPool(addr, 1)
	defer p.Close()
	p.SetTimeout(30 * time.Millisecond)
	retries := 0
	p.SetRetrier(&retrier.Retrier{
		Policy:  retrier.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond},
		Observe: func(string, int, time.Duration, error) { retries++ },
	})
	_, err := p.Exec("INSERT INTO t VALUES (1)")
	if err == nil {
		t.Fatal("timeout expected")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want net timeout", err)
	}
	if NotSent(err) {
		t.Errorf("post-send deadline misclassified as NotSent: %v", err)
	}
	if retries != 0 {
		t.Errorf("post-send timeout on Exec was retried %d times", retries)
	}
}

// TestPoolRetriesIdempotentAfterSend: the same post-send deadline IS retried
// for read-only round trips (QueryAll, Describe), which are safe to re-run.
func TestPoolRetriesIdempotentAfterSend(t *testing.T) {
	addr := startSilentServer(t)
	p := NewPool(addr, 1)
	defer p.Close()
	p.SetTimeout(30 * time.Millisecond)
	retries := 0
	p.SetRetrier(&retrier.Retrier{
		Policy:  retrier.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Observe: func(string, int, time.Duration, error) { retries++ },
	})
	if _, _, err := p.QueryAll("SELECT 1"); err == nil {
		t.Fatal("timeout expected")
	}
	if retries == 0 {
		t.Error("post-send timeout on read-only QueryAll was not retried")
	}
}

// TestPoolGetWokenByDiscard: a Get blocked on pool capacity must wake up
// when a broken connection is discarded — discarding frees a dial slot.
// Regression test for the hang where discard decremented the made counter
// without signaling blocked waiters.
func TestPoolGetWokenByDiscard(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 1)
	defer p.Close()

	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		c2, err := p.Get()
		if err == nil {
			p.Put(c2)
		}
		got <- err
	}()
	// Let the goroutine reach the blocking select, then poison c1 so Put
	// discards it instead of recycling.
	time.Sleep(20 * time.Millisecond)
	c1.SetFaultHook(func(op string) error { return fmt.Errorf("poison") })
	if _, err := c1.Exec("SELECT 1"); err == nil {
		t.Fatal("faulted round trip should error")
	}
	p.Put(c1) // discard: must free the slot and wake the blocked Get

	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("woken Get failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked forever after discard freed capacity")
	}
}

// TestNotSentClassification: injected faults and dial failures are tagged
// NotSent (safe to retry blindly); their Transient verdict still unwraps.
func TestNotSentClassification(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetFaultHook(func(op string) error { return &faultErr{} })
	_, err = c.Exec("SELECT 1")
	if err == nil {
		t.Fatal("fault expected")
	}
	if !NotSent(err) {
		t.Errorf("injected fault not tagged NotSent: %v", err)
	}
	if !retrier.IsTransient(err) {
		t.Errorf("NotSent wrapper hid the Transient verdict: %v", err)
	}

	// Dial failure: point a pool at a dead address.
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	dead := ln.Addr().String()
	ln.Close()
	p := NewPool(dead, 1)
	defer p.Close()
	if _, err := p.Get(); err == nil {
		t.Fatal("dial to dead address should fail")
	} else if !NotSent(err) {
		t.Errorf("dial failure not tagged NotSent: %v", err)
	}
}

func TestTracePropagationAndEngineNanos(t *testing.T) {
	eng := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	srv := NewServer(eng)
	ev := obs.NewEventLog(16)
	srv.SetEventLog(ev)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := NewPool(addr, 1)
	defer p.Close()

	type hookCall struct {
		op       string
		tc       obs.TraceContext
		engineNS int64
	}
	var mu sync.Mutex
	var calls []hookCall
	p.SetTraceHook(func(op string, tc obs.TraceContext, _ time.Time, _ time.Duration, engineNS int64, err error) {
		mu.Lock()
		calls = append(calls, hookCall{op, tc, engineNS})
		mu.Unlock()
	})

	tc := obs.TraceContext{TraceID: 0xBEEF, SpanID: 0x12, Sampled: true}
	if _, err := p.ExecT("CREATE TABLE tt (a BIGINT)", tc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.QueryAllT("SELECT a FROM tt", tc); err != nil {
		t.Fatal(err)
	}
	// Untraced calls must not reach the trace hook.
	if _, err := p.Exec("INSERT INTO tt VALUES (7)"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("trace hook fired %d times, want 2", len(calls))
	}
	if calls[0].op != "exec" || calls[1].op != "query" {
		t.Errorf("ops: %q, %q", calls[0].op, calls[1].op)
	}
	for i, c := range calls {
		if c.tc != tc {
			t.Errorf("call %d context %+v, want %+v", i, c.tc, tc)
		}
		if c.engineNS <= 0 {
			t.Errorf("call %d engineNS %d, want > 0", i, c.engineNS)
		}
	}

	// The server event log saw all three requests; the traced ones carry
	// the propagated trace ID.
	events := ev.Events(0)
	if len(events) != 3 {
		t.Fatalf("server recorded %d events, want 3", len(events))
	}
	want := obs.FormatTraceID(tc.TraceID)
	if events[0].TraceID != want || events[1].TraceID != want {
		t.Errorf("traced events carry %q/%q, want %q", events[0].TraceID, events[1].TraceID, want)
	}
	if events[2].TraceID != "" {
		t.Errorf("untraced event carries trace ID %q", events[2].TraceID)
	}
	for _, e := range events {
		if e.Type != "cdw_request" {
			t.Errorf("event type %q", e.Type)
		}
	}
}
