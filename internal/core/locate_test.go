package core_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
)

// TestLocatedSplitExplainsItsStatements: Figure 5's two bad dates and one
// duplicate key are named by one probe, so the failing range is applied as
// five single rows instead of being bisected. The job report, the node
// counters and the job trace each account for the probe.
func TestLocatedSplitExplainsItsStatements(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{ChunkRecords: 2})
	if ir := res.Imports[0]; ir.Inserted != 2 || ir.ErrorsET != 2 || ir.ErrorsUV != 1 {
		t.Fatalf("outcome %+v, want 2 inserted, 2 ET, 1 UV", ir)
	}
	rep := st.node.Reports()[0]
	// the failing 1..5, then rows 1 to 5 one at a time
	if rep.ApplyStmts != 6 || rep.Splits != 1 || rep.MaxSplitDepth != 1 || rep.Locates != 1 || rep.LocateMisses != 0 {
		t.Errorf("report: %d statements, %d splits, depth %d, %d locates, %d misses; want 6, 1, 1, 1, 0",
			rep.ApplyStmts, rep.Splits, rep.MaxSplitDepth, rep.Locates, rep.LocateMisses)
	}
	if n, suspects, _ := spanTotals(t, st.node, rep.JobID, "locate"); n != 1 || suspects != 3 {
		t.Errorf("%d locate spans naming %d rows, want 1 naming 3", n, suspects)
	}
	dump := metricsDump(t, st.node)
	if v := metricValue(t, dump, "etlvirt_errhandle_locates_total"); v != 1 {
		t.Errorf("etlvirt_errhandle_locates_total = %v, want 1", v)
	}
	if v := metricValue(t, dump, "etlvirt_errhandle_locate_misses_total"); v != 0 {
		t.Errorf("etlvirt_errhandle_locate_misses_total = %v, want 0", v)
	}

	// A clean load never asks.
	mustEng(t, st.eng, "DELETE FROM PROD.CUSTOMER")
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": "1|A|2020-01-01\n2|B|2020-01-02\n"},
		etlclient.Options{})
	if rep := st.node.Reports()[1]; rep.ApplyStmts != 1 || rep.Locates != 0 {
		t.Errorf("clean load: %d statements, %d locates; want 1 and 0", rep.ApplyStmts, rep.Locates)
	}
}

// TestIsolatedBadKeyETRow: when the key expression itself fails on a row,
// that row's ET entry is the one the intra-range duplicate check used to
// raise on it — the check is skipped for single rows, and the collision
// check or the insert now raises the same conversion error.
func TestIsolatedBadKeyETRow(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, "CREATE TABLE PROD.KEYED (K INTEGER NOT NULL, V VARCHAR(10), PRIMARY KEY (K))")
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field V varchar(10);
.begin import tables PROD.KEYED errortables PROD.KEYED_ET PROD.KEYED_UV;
.dml label Ins;
insert into PROD.KEYED values (cast(:K as INTEGER), :V);
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
`
	res := runScript(t, st.addr, script, map[string]string{"input.txt": "1|a\n2|b\nxx|c\n4|d\n"}, etlclient.Options{})
	if ir := res.Imports[0]; ir.Inserted != 3 || ir.ErrorsET != 1 || ir.ErrorsUV != 0 {
		t.Fatalf("outcome %+v, want 3 inserted and 1 ET row", ir)
	}
	et := mustEng(t, st.eng, "SELECT SEQNO, SEQNO_END, ERRCODE, ERRFIELD FROM PROD.KEYED_ET").Rows
	if len(et) != 1 || et[0][0].I != 3 || et[0][1].I != 3 || et[0][2].I != 2617 || et[0][3].S != "K" {
		t.Errorf("ET rows %v, want (3, 3, 2617, K)", et)
	}
}

// sqlTap forwards CDW connections to a server and keeps the SQL text of
// every request it passes on, in arrival order. A request frame is a u32
// body length, and its body opens with the SQL as a u32-length-prefixed
// string; the responses are copied back untouched.
type sqlTap struct {
	mu  sync.Mutex
	sql []string
}

func (tp *sqlTap) listen(t *testing.T, server string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", server)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				io.Copy(c, s)
				c.Close()
			}()
			go tp.forward(s, c)
		}
	}()
	return ln.Addr().String()
}

func (tp *sqlTap) forward(dst, src net.Conn) {
	defer dst.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		if len(body) >= 4 {
			if n := int(binary.BigEndian.Uint32(body)); n <= len(body)-4 {
				tp.mu.Lock()
				tp.sql = append(tp.sql, string(body[4:4+n]))
				tp.mu.Unlock()
			}
		}
		if _, err := dst.Write(append(hdr[:], body...)); err != nil {
			return
		}
	}
}

// snapshot returns the SQL of every request so far, in arrival order.
func (tp *sqlTap) snapshot() []string {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return slices.Clone(tp.sql)
}

// count returns how many requests began with prefix.
func (tp *sqlTap) count(prefix string) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	n := 0
	for _, q := range tp.sql {
		if strings.HasPrefix(q, prefix) {
			n++
		}
	}
	return n
}

// TestLocatedSplitStatementBudget pins what a located split costs the CDW,
// without fault injection. Figure 5's import fails on rows 1..5, and the
// probe names rows 2 and 3 for their dates and row 4 for repeating row 1's
// key. The probe settles the key checks of every row it did not name for a
// key, so rows 1, 2, 3 and 5 apply without a key check, and the job's ET
// and UV rows go in one INSERT per table at the end of apply. Row 4 sends
// one key check, and its diagnosis reads the staged tuple for its UV
// message in the same SELECT. The handler's attempts are the same as
// before: only statements around them go.
func TestLocatedSplitStatementBudget(t *testing.T) {
	store := cloudstore.NewMemStore()
	eng := cdw.NewEngine(store, cdw.Options{})
	srv := cdwnet.NewServer(eng)
	cdwAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var tap sqlTap
	node := core.NewNode(core.Config{CDWAddr: tap.listen(t, cdwAddr)}, store)
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	mustEng(t, eng, customerDDL)

	before := eng.StmtCount()
	res := runScript(t, addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{ChunkRecords: 2})
	if ir := res.Imports[0]; ir.Inserted != 2 || ir.ErrorsET != 2 || ir.ErrorsUV != 1 {
		t.Fatalf("outcome %+v, want 2 inserted, 2 ET, 1 UV", ir)
	}
	// Before the probe settled the key checks there were 30: collision
	// queries on rows 1, 2, 3 and 5, and one INSERT per ET row. Then 25,
	// until row 4's precedence probe and its tuple's SELECT became one
	// diagnosis.
	const want = 24
	if got := eng.StmtCount() - before; got != want {
		t.Errorf("the import executed %d CDW statements, want %d", got, want)
	}
	for _, table := range []string{"PROD.CUSTOMER_ET", "PROD.CUSTOMER_UV"} {
		if n := tap.count("INSERT INTO " + table + " "); n != 1 {
			t.Errorf("%d INSERTs into %s, want 1", n, table)
		}
	}
	rep := node.Reports()[0]
	if rep.ApplyStmts != 6 || rep.Splits != 1 || rep.Locates != 1 {
		t.Errorf("report: %d statements, %d splits, %d locates; want 6, 1, 1",
			rep.ApplyStmts, rep.Splits, rep.Locates)
	}
}

// TestExtraValuesKeyCollision: an insert whose VALUES list is longer than
// its column list fails on every row at the CDW. A row whose key also
// collides with the target reaches the legacy precedence probe, which must
// take the extra value as feeding no column. The job finishes with one
// error row per input row, and the node serves the next job.
func TestExtraValuesKeyCollision(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, "CREATE TABLE PROD.KEYED (K INTEGER NOT NULL, V VARCHAR(10), PRIMARY KEY (K))")
	mustEng(t, st.eng, "INSERT INTO PROD.KEYED VALUES (2, 'pre')")
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field V varchar(10);
.begin import tables PROD.KEYED errortables PROD.KEYED_ET PROD.KEYED_UV;
.dml label Ins;
insert into PROD.KEYED (K, V) values (cast(:K as INTEGER), :V, :V);
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
`
	res := runScript(t, st.addr, script, map[string]string{"input.txt": "1|a\n2|b\n3|c\n"}, etlclient.Options{})
	ir := res.Imports[0]
	if ir.Inserted != 0 || ir.ErrorsET+ir.ErrorsUV != 3 {
		t.Fatalf("outcome %+v, want 0 inserted and 3 error rows", ir)
	}
	mustEng(t, st.eng, customerDDL)
	res = runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": "1|A|2020-01-01\n"}, etlclient.Options{})
	if ir := res.Imports[0]; ir.Inserted != 1 {
		t.Fatalf("next job %+v, want 1 inserted", ir)
	}
}

// TestErrorRowsFlushInBatches: an import buffers its error rows and writes
// a table's buffer as soon as it holds one INSERT's worth, so its memory
// stays bounded however dirty the input is. 250 bad dates give three
// INSERTs into the ET table, and the first goes before apply ends.
func TestErrorRowsFlushInBatches(t *testing.T) {
	store := cloudstore.NewMemStore()
	eng := cdw.NewEngine(store, cdw.Options{})
	srv := cdwnet.NewServer(eng)
	cdwAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var tap sqlTap
	node := core.NewNode(core.Config{CDWAddr: tap.listen(t, cdwAddr)}, store)
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	mustEng(t, eng, customerDDL)

	var in strings.Builder
	for i := range 250 {
		fmt.Fprintf(&in, "%d|N%d|2020-13-01\n", i, i)
	}
	res := runScript(t, addr, example21Script("\n\tmaxerrors 1000"), map[string]string{"input.txt": in.String()},
		etlclient.Options{})
	if ir := res.Imports[0]; ir.Inserted != 0 || ir.ErrorsET != 250 || ir.ErrorsUV != 0 {
		t.Fatalf("outcome %+v, want 250 ET rows", ir)
	}
	if n := len(mustEng(t, eng, "SELECT SEQNO FROM PROD.CUSTOMER_ET").Rows); n != 250 {
		t.Errorf("%d rows in PROD.CUSTOMER_ET, want 250", n)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	firstET, lastApply, inserts := -1, -1, 0
	for i, q := range tap.sql {
		switch {
		case strings.HasPrefix(q, "INSERT INTO PROD.CUSTOMER_ET "):
			inserts++
			if firstET < 0 {
				firstET = i
			}
		case strings.HasPrefix(q, "INSERT INTO PROD.CUSTOMER "):
			lastApply = i
		}
	}
	if inserts != 3 {
		t.Errorf("%d INSERTs into PROD.CUSTOMER_ET, want 3", inserts)
	}
	if firstET < 0 || firstET > lastApply {
		t.Errorf("first ET INSERT is request %d, last apply attempt %d: the buffer was not flushed during apply",
			firstET, lastApply)
	}
}
