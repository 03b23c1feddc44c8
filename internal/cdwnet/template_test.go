package cdwnet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cloudstore"
)

// stageRows creates table name (__seq BIGINT, v BIGINT) holding rows
// 1..n with v = seq*mult.
func stageRows(t *testing.T, p *Pool, name string, n, mult int) {
	t.Helper()
	if _, err := p.Exec("CREATE TABLE " + name + " (__seq BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + name + " VALUES ")
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i*mult)
	}
	if _, err := p.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// sumRange is a range template over table name.
func sumRange(name string) string {
	return "SELECT COUNT(*), SUM(v) FROM " + name + " s WHERE s.__seq BETWEEN :__lo AND :__hi"
}

func queryRange(t *testing.T, p *Pool, tmpl string, lo, hi int64) (count, sum int64) {
	t.Helper()
	_, rows, err := p.Read(t.Context(), Range(tmpl, lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	return rows[0][0].I, rows[0][1].I
}

// TestTemplateCacheBound fills a cache with more templates than its bound:
// it never holds more than templateCap, keeps the most recently used, and
// hands back the one parse for a template it holds.
func TestTemplateCacheBound(t *testing.T) {
	var tc templateCache
	first, err := tc.get(sumRange("t0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3*templateCap; i++ {
		if _, err := tc.get(sumRange(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
		if again, _ := tc.get(sumRange("t0")); again != first {
			t.Fatalf("after %d templates the most recently used one was parsed again", i+1)
		}
		if len(tc.entries) > templateCap {
			t.Fatalf("cache holds %d templates, bound %d", len(tc.entries), templateCap)
		}
	}
	if len(tc.entries) != templateCap {
		t.Errorf("cache holds %d templates, want %d", len(tc.entries), templateCap)
	}
	if _, err := tc.get("SELECT 1"); err == nil {
		t.Error("a template without bind markers was accepted")
	} else if ee, ok := err.(*cdw.Error); !ok || ee.Code != cdw.CodeSyntax {
		t.Errorf("bad template: %v, want a syntax error", err)
	}
}

// TestRangeTemplateRoundTrip runs range statements through the pool: each
// is one engine statement and one observed round trip, an exec binds like a
// query, and the connection's one parse serves every range. A template sent
// as plain SQL is a syntax error, and the connection survives it.
func TestRangeTemplateRoundTrip(t *testing.T) {
	eng, addr := startServer(t)
	var ops []string
	p := NewPoolWith(addr, 1, PoolConfig{Observer: func(rt RoundTrip) { ops = append(ops, rt.Op) }})
	defer p.Close()
	stageRows(t, p, "st", 100, 1)
	ops = nil

	before := eng.StmtCount()
	for _, r := range [][2]int64{{1, 10}, {5, 5}, {90, 200}, {7, 3}} {
		n, sum := queryRange(t, p, sumRange("st"), r[0], r[1])
		var wantN, wantSum int64
		for s := max(r[0], 1); s <= min(r[1], 100); s++ {
			wantN++
			wantSum += s
		}
		if n != wantN || sum != wantSum {
			t.Errorf("range %v: count %d sum %d, want %d %d", r, n, sum, wantN, wantSum)
		}
	}
	n, err := p.Write(t.Context(), Range("DELETE FROM st s WHERE s.__seq BETWEEN :__lo AND :__hi", 11, 20))
	if err != nil || n != 10 {
		t.Errorf("range delete: %d rows, %v", n, err)
	}
	if got := eng.StmtCount() - before; got != 5 {
		t.Errorf("5 range statements ran as %d engine statements", got)
	}
	if want := []string{"query", "query", "query", "query", "exec"}; fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("observed ops %v, want %v", ops, want)
	}
	if _, err := p.Exec(sumRange("st")); err == nil {
		t.Error("plain SQL with bind markers ran")
	} else if ee, ok := err.(*cdw.Error); !ok || ee.Code != cdw.CodeSyntax {
		t.Errorf("plain SQL with bind markers: %v, want a syntax error", err)
	}
	if c, _ := queryRange(t, p, sumRange("st"), 1, 100); c != 90 {
		t.Errorf("after the delete %d rows remain, want 90", c)
	}
}

// TestTemplateSurvivesDDL drops and recreates a template's table with
// other columns in another order: the cached parse holds no names, so the
// next run reads the new table.
func TestTemplateSurvivesDDL(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 1) // one connection, so the second run hits its cache
	defer p.Close()
	stageRows(t, p, "st", 10, 1)
	if _, sum := queryRange(t, p, sumRange("st"), 1, 10); sum != 55 {
		t.Fatalf("sum %d, want 55", sum)
	}
	if _, err := p.Exec("DROP TABLE st"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Read(t.Context(), Range(sumRange("st"), 1, 10)); err == nil {
		t.Error("template ran against a dropped table")
	}
	if _, err := p.Exec("CREATE TABLE st (v BIGINT, w VARCHAR(5), __seq BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec("INSERT INTO st VALUES (100, 'a', 1), (200, 'b', 2), (400, 'c', 3)"); err != nil {
		t.Fatal(err)
	}
	if n, sum := queryRange(t, p, sumRange("st"), 2, 3); n != 2 || sum != 600 {
		t.Errorf("after DROP/CREATE: count %d sum %d, want 2 600", n, sum)
	}
}

// TestRangeTemplatesConcurrentConnections runs the same templates over
// several connections at once, each binding its own ranges, so the race
// detector sees any parse shared between connections.
func TestRangeTemplatesConcurrentConnections(t *testing.T) {
	_, addr := startServer(t)
	p := NewPool(addr, 4)
	defer p.Close()
	stageRows(t, p, "st", 200, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := int64(g*25 + i + 1)
				hi := lo + int64(i)
				_, rows, err := p.Read(t.Context(), Range(sumRange("st"), lo, hi))
				if err != nil {
					t.Error(err)
					return
				}
				var want int64
				for s := lo; s <= min(hi, 200); s++ {
					want += 2 * s
				}
				if got := rows[0][1].I; got != want {
					t.Errorf("range %d..%d: sum %d, want %d", lo, hi, got, want)
				}
				if _, err := p.Write(t.Context(), Range("UPDATE st s SET v = v WHERE s.__seq BETWEEN :__lo AND :__hi", lo, hi)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerCloseLeavesNoGoroutine closes a server with idle and busy
// connections open: once Close returns, no server goroutine is left
// blocked on a socket.
func TestServerCloseLeavesNoGoroutine(t *testing.T) {
	eng := cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{})
	srv := NewServer(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Exec("SELECT 1"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"cdwnet.(*Server).serveConn", "cdwnet.(*Server).acceptLoop"} {
		if strings.Contains(stacks, fn) {
			t.Errorf("%s still running after Close", fn)
		}
	}
	if _, err := clients[0].Exec("SELECT 1"); err == nil {
		t.Error("a connection to a closed server still answered")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
