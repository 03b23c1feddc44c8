package edw_test

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/core"
	"etlvirt/internal/edw"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
)

const figure5Data = `123|Smith|2012-01-01
456|Brown|xxxx
789|Brown|yyyyy
123|Jones|2012-12-01
157|Jones|2012-12-01
`

const customerDDL = `CREATE TABLE PROD.CUSTOMER (
	CUST_ID VARCHAR(5) NOT NULL,
	CUST_NAME VARCHAR(50),
	JOIN_DATE DATE,
	PRIMARY KEY (CUST_ID))`

const example21 = `
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER
	errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label InsApply;
insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
.import infile input.txt
	format vartext '|' layout CustLayout
	apply InsApply;
.end load;
`

func startEDW(t *testing.T) (*edw.Server, string) {
	t.Helper()
	srv := edw.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func run(t *testing.T, addr, script string, files map[string]string) *etlclient.Result {
	t.Helper()
	s, err := etlscript.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	res, err := etlclient.Run(s, etlclient.Options{
		Addr:         addr,
		ChunkRecords: 2,
		ReadFile: func(name string) ([]byte, error) {
			data, ok := files[name]
			if !ok {
				return nil, fmt.Errorf("no file %q", name)
			}
			return []byte(data), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServerCloseReapsGoroutines: Close ends the acceptor and every
// per-connection goroutine, including one whose client is still connected
// and idle.
func TestServerCloseReapsGoroutines(t *testing.T) {
	srv := edw.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	waitGoroutines(t, "the connection's goroutine to start", func(gs []string) bool {
		return strings.Contains(strings.Join(gs, ""), "serveConn")
	})
	srv.Close()
	waitGoroutines(t, "edw goroutines to exit after Close", func(gs []string) bool { return len(gs) == 0 })
}

// waitGoroutines polls the stacks of the live goroutines that run, or were
// started by, code in etlvirt/internal/edw until cond holds, and fails the
// test with those stacks after five seconds.
func waitGoroutines(t *testing.T, what string, cond func([]string) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var gs []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "etlvirt/internal/edw.") {
				gs = append(gs, g)
			}
		}
		if cond(gs) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s:\n\n%s", what, strings.Join(gs, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFigure5LegacySemantics runs Example 2.1 natively on the legacy EDW and
// checks the Figure 5 outcome: the EDW is the semantic ground truth the
// virtualizer is later compared against.
func TestFigure5LegacySemantics(t *testing.T) {
	srv, addr := startEDW(t)
	eng := srv.Engine()
	if _, err := eng.ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	res := run(t, addr, example21, map[string]string{"input.txt": figure5Data})
	ir := res.Imports[0]
	if ir.Inserted != 2 || ir.ErrorsET != 2 || ir.ErrorsUV != 1 {
		t.Errorf("result: %+v", ir)
	}
	rows, err := eng.ExecSQL("SELECT cust_id FROM PROD.CUSTOMER ORDER BY cust_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 || rows.Rows[0][0].S != "123" || rows.Rows[1][0].S != "157" {
		t.Errorf("target: %v", rows.Rows)
	}
	et, _ := eng.ExecSQL("SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_ET ORDER BY SEQNO")
	if len(et.Rows) != 2 || et.Rows[0][0].I != 2 || et.Rows[1][0].I != 3 {
		t.Errorf("ET: %v", et.Rows)
	}
	uv, _ := eng.ExecSQL("SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_UV")
	if len(uv.Rows) != 1 || uv.Rows[0][0].I != 4 || uv.Rows[0][1].I != cdw.CodeUniqueness {
		t.Errorf("UV: %v", uv.Rows)
	}
}

// tableState extracts a canonical, comparable representation of a table.
func tableState(t *testing.T, eng *cdw.Engine, sql string) []string {
	t.Helper()
	res, err := eng.ExecSQL(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var out []string
	for _, row := range res.Rows {
		var parts []string
		for _, d := range row {
			parts = append(parts, d.Render())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// TestOracleEquivalence is the paper's transparency claim as an executable
// assertion: the same unmodified script, run natively against the legacy EDW
// and through the virtualizer against the CDW, must produce the same target
// table and the same error-table entries.
func TestOracleEquivalence(t *testing.T) {
	// legacy side
	edwSrv, edwAddr := startEDW(t)
	if _, err := edwSrv.Engine().ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	legacyRes := run(t, edwAddr, example21, map[string]string{"input.txt": figure5Data})

	// virtualized side
	store := cloudstore.NewMemStore()
	cdwEng := cdw.NewEngine(store, cdw.Options{})
	cdwSrv := cdwnet.NewServer(cdwEng)
	cdwAddr, err := cdwSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdwSrv.Close() })
	node := core.NewNode(core.Config{CDWAddr: cdwAddr}, store)
	nodeAddr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	if _, err := cdwEng.ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	virtRes := run(t, nodeAddr, example21, map[string]string{"input.txt": figure5Data})

	// job-level outcome equality
	l, v := legacyRes.Imports[0], virtRes.Imports[0]
	if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
		t.Errorf("job outcomes differ: legacy %+v vs virtualized %+v", l, v)
	}

	// table-state equality
	target := "SELECT CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER"
	if got, want := tableState(t, cdwEng, target), tableState(t, edwSrv.Engine(), target); !equal(got, want) {
		t.Errorf("target tables differ:\n cdw: %v\n edw: %v", got, want)
	}
	errq := "SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_ET"
	if got, want := tableState(t, cdwEng, errq), tableState(t, edwSrv.Engine(), errq); !equal(got, want) {
		t.Errorf("ET tables differ:\n cdw: %v\n edw: %v", got, want)
	}
	uvq := "SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_UV"
	if got, want := tableState(t, cdwEng, uvq), tableState(t, edwSrv.Engine(), uvq); !equal(got, want) {
		t.Errorf("UV tables differ:\n cdw: %v\n edw: %v", got, want)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOracleEquivalenceRandomized fuzzes the equivalence over generated
// inputs with mixed error types.
func TestOracleEquivalenceRandomized(t *testing.T) {
	gen := func(seed int) string {
		var sb strings.Builder
		for i := 0; i < 60; i++ {
			id := (seed*31 + i*7) % 40 // collisions across rows -> UV errors
			date := "2020-01-15"
			if (i+seed)%9 == 0 {
				date = "not-a-date" // -> ET errors
			}
			fmt.Fprintf(&sb, "%d|Name %d|%s\n", id, i, date)
		}
		return sb.String()
	}
	for seed := 0; seed < 3; seed++ {
		data := gen(seed)

		edwSrv, edwAddr := startEDW(t)
		if _, err := edwSrv.Engine().ExecSQL(customerDDL); err != nil {
			t.Fatal(err)
		}
		legacyRes := run(t, edwAddr, example21, map[string]string{"input.txt": data})

		store := cloudstore.NewMemStore()
		cdwEng := cdw.NewEngine(store, cdw.Options{})
		cdwSrv := cdwnet.NewServer(cdwEng)
		cdwAddr, _ := cdwSrv.Listen("127.0.0.1:0")
		t.Cleanup(func() { cdwSrv.Close() })
		node := core.NewNode(core.Config{CDWAddr: cdwAddr}, store)
		nodeAddr, _ := node.Listen("127.0.0.1:0")
		t.Cleanup(func() { node.Close() })
		if _, err := cdwEng.ExecSQL(customerDDL); err != nil {
			t.Fatal(err)
		}
		virtRes := run(t, nodeAddr, example21, map[string]string{"input.txt": data})

		l, v := legacyRes.Imports[0], virtRes.Imports[0]
		if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
			t.Errorf("seed %d: outcomes differ: legacy %+v vs virt %+v", seed, l, v)
		}
		target := "SELECT CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER"
		if got, want := tableState(t, cdwEng, target), tableState(t, edwSrv.Engine(), target); !equal(got, want) {
			t.Errorf("seed %d: targets differ:\n cdw: %v\n edw: %v", seed, got, want)
		}
		errq := "SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_ET"
		if got, want := tableState(t, cdwEng, errq), tableState(t, edwSrv.Engine(), errq); !equal(got, want) {
			t.Errorf("seed %d: ET differ:\n cdw: %v\n edw: %v", seed, got, want)
		}
		uvq := "SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_UV"
		if got, want := tableState(t, cdwEng, uvq), tableState(t, edwSrv.Engine(), uvq); !equal(got, want) {
			t.Errorf("seed %d: UV differ:\n cdw: %v\n edw: %v", seed, got, want)
		}
	}
}

// TestEDWExportAndRunSQL exercises the legacy server's export and ad-hoc SQL
// paths.
func TestEDWExportAndRunSQL(t *testing.T) {
	srv, addr := startEDW(t)
	lg := etlscript.Logon{User: "u", Password: "p"}
	if _, err := etlclient.Exec(addr, lg, customerDDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := etlclient.Exec(addr, lg, fmt.Sprintf(
			"INSERT INTO PROD.CUSTOMER VALUES ('%02d', 'N%d', DATE '2020-01-01')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	_, rows, err := etlclient.QueryRows(addr, lg, "SEL TOP 3 CUST_ID FROM PROD.CUSTOMER ORDER BY CUST_ID")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].S != "00" {
		t.Errorf("query rows: %v", rows)
	}

	script := `
.logon h/u,p;
.begin export outfile out.txt format vartext '|' sessions 2;
SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID;
.end export;
`
	s, err := etlscript.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	res, err := etlclient.Run(s, etlclient.Options{
		Addr:      addr,
		WriteFile: func(name string, data []byte) error { out = data; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exports[0].Rows != 25 {
		t.Errorf("exported %d", res.Exports[0].Rows)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 25 || lines[0] != "00|N0" {
		t.Errorf("lines: %d, first %q", len(lines), lines[0])
	}
	_ = srv
}

// TestEDWSingletonApplyCost pins down that the EDW applies tuple-at-a-time:
// its statement count scales with rows (the Figure 11 baseline behaviour).
func TestEDWSingletonApplyCost(t *testing.T) {
	srv, addr := startEDW(t)
	if _, err := srv.Engine().ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	var data strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&data, "%d|N%d|2020-01-01\n", i, i)
	}
	before := srv.Engine().StmtCount()
	run(t, addr, example21, map[string]string{"input.txt": data.String()})
	applied := srv.Engine().StmtCount() - before
	if applied < 40 {
		t.Errorf("EDW apply issued %d statements for 40 rows; expected tuple-at-a-time", applied)
	}
}

// TestOracleEquivalenceUpsert runs the same upsert script against the
// legacy EDW and through the virtualizer and compares the results.
func TestOracleEquivalenceUpsert(t *testing.T) {
	const upsertScript = `
.logon host/user,pass;
.layout KV;
.field K varchar(5);
.field V varchar(50);
.field D varchar(10);
.begin import tables PROD.CUSTOMER errortables PROD.UP_ET PROD.UP_UV;
.dml label Up;
update PROD.CUSTOMER set CUST_NAME = trim(:V) where CUST_ID = trim(:K)
else insert into PROD.CUSTOMER values (trim(:K), trim(:V),
	cast(:D as DATE format 'YYYY-MM-DD'));
.import infile up.txt format vartext '|' layout KV apply Up;
.end load;
`
	seed := `INSERT INTO PROD.CUSTOMER VALUES
		('1', 'Old One', '2010-01-01'), ('2', 'Old Two', '2010-01-02')`
	data := "1|New One|2020-01-01\n3|Three|2020-03-03\n2|New Two|xxxx\n4|Four|2020-04-04\n2|Again Two|2020-02-02\n"

	edwSrv, edwAddr := startEDW(t)
	if _, err := edwSrv.Engine().ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := edwSrv.Engine().ExecSQL(seed); err != nil {
		t.Fatal(err)
	}
	legacyRes := run(t, edwAddr, upsertScript, map[string]string{"up.txt": data})

	store := cloudstore.NewMemStore()
	cdwEng := cdw.NewEngine(store, cdw.Options{})
	cdwSrv := cdwnet.NewServer(cdwEng)
	cdwAddr, _ := cdwSrv.Listen("127.0.0.1:0")
	t.Cleanup(func() { cdwSrv.Close() })
	node := core.NewNode(core.Config{CDWAddr: cdwAddr}, store)
	nodeAddr, _ := node.Listen("127.0.0.1:0")
	t.Cleanup(func() { node.Close() })
	if _, err := cdwEng.ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := cdwEng.ExecSQL(seed); err != nil {
		t.Fatal(err)
	}
	virtRes := run(t, nodeAddr, upsertScript, map[string]string{"up.txt": data})

	l, v := legacyRes.Imports[0], virtRes.Imports[0]
	if l.Inserted != v.Inserted || l.Updated != v.Updated || l.ErrorsET != v.ErrorsET {
		t.Errorf("outcomes differ: legacy %+v vs virt %+v", l, v)
	}
	target := "SELECT CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER"
	if got, want := tableState(t, cdwEng, target), tableState(t, edwSrv.Engine(), target); !equal(got, want) {
		t.Errorf("targets differ:\n cdw: %v\n edw: %v", got, want)
	}
	errq := "SELECT SEQNO, ERRCODE FROM PROD.UP_ET"
	if got, want := tableState(t, cdwEng, errq), tableState(t, edwSrv.Engine(), errq); !equal(got, want) {
		t.Errorf("ET differ:\n cdw: %v\n edw: %v", got, want)
	}
}

// TestOracleEquivalenceExport runs the same export script against the
// legacy EDW and the virtualizer and compares the produced files.
func TestOracleEquivalenceExport(t *testing.T) {
	seed := `INSERT INTO PROD.CUSTOMER VALUES
		('3', 'Carol', '2012-03-03'),
		('1', 'Alice', '2012-01-01'),
		('2', NULL, '2012-02-02')`
	const exportScript = `
.logon h/u,p;
.begin export outfile out.txt format vartext '|' sessions 2;
%s;
.end export;
`
	tryExport := func(addr, query string) (string, error) {
		s, err := etlscript.Parse(fmt.Sprintf(exportScript, query))
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		_, err = etlclient.Run(s, etlclient.Options{
			Addr:      addr,
			WriteFile: func(name string, data []byte) error { out = data; return nil },
		})
		return string(out), err
	}
	runExport := func(addr string) string {
		out, err := tryExport(addr, "SEL CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER ORDER BY 1")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	edwSrv, edwAddr := startEDW(t)
	if _, err := edwSrv.Engine().ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := edwSrv.Engine().ExecSQL(seed); err != nil {
		t.Fatal(err)
	}
	legacyOut := runExport(edwAddr)

	store := cloudstore.NewMemStore()
	cdwEng := cdw.NewEngine(store, cdw.Options{})
	cdwSrv := cdwnet.NewServer(cdwEng)
	cdwAddr, _ := cdwSrv.Listen("127.0.0.1:0")
	t.Cleanup(func() { cdwSrv.Close() })
	node := core.NewNode(core.Config{CDWAddr: cdwAddr}, store)
	nodeAddr, _ := node.Listen("127.0.0.1:0")
	t.Cleanup(func() { node.Close() })
	if _, err := cdwEng.ExecSQL(customerDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := cdwEng.ExecSQL(seed); err != nil {
		t.Fatal(err)
	}
	virtOut := runExport(nodeAddr)

	if legacyOut != virtOut {
		t.Errorf("export files differ:\n legacy: %q\n virt:   %q", legacyOut, virtOut)
	}
	if !strings.HasPrefix(legacyOut, "1|Alice|2012-01-01\n2||2012-02-02\n") {
		t.Errorf("unexpected export content: %q", legacyOut)
	}

	// A CASE whose branches differ in type: each value is encoded by its
	// own kind against the column's declared type, on both sides. A mixed
	// VARCHAR/DATE column renders dates as text; a DATE in a BIGINT column
	// is rejected, not exported as its epoch day.
	for _, tc := range []struct {
		then string
		want string // legacy export; "" when the EDW rejects the query
	}{
		{"CUST_NAME", "1|2012-01-01\n2|2012-02-02\n3|Carol\n"},
		{"7", ""},
	} {
		q := "SEL CUST_ID, CASE WHEN CUST_ID = '3' THEN " + tc.then +
			" ELSE JOIN_DATE END FROM PROD.CUSTOMER ORDER BY 1"
		legacyOut, legacyErr := tryExport(edwAddr, q)
		virtOut, virtErr := tryExport(nodeAddr, q)
		if tc.want == "" {
			if legacyErr == nil || virtErr == nil {
				t.Errorf("THEN %s: want both to fail, legacy err %v, virt err %v (virt out %q)",
					tc.then, legacyErr, virtErr, virtOut)
			}
			continue
		}
		if legacyErr != nil || virtErr != nil {
			t.Errorf("THEN %s: legacy err %v, virt err %v", tc.then, legacyErr, virtErr)
			continue
		}
		if legacyOut != tc.want || virtOut != legacyOut {
			t.Errorf("THEN %s: export files differ:\n legacy: %q\n virt:   %q", tc.then, legacyOut, virtOut)
		}
	}
}
