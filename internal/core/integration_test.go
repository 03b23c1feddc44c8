package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/ltype"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// stack is a complete virtualized environment: object store, CDW engine +
// server, and a virtualizer node.
type stack struct {
	store *cloudstore.MemStore
	eng   *cdw.Engine
	node  *core.Node
	addr  string // node address for legacy clients
}

func startStack(t *testing.T, cfg core.Config) *stack {
	t.Helper()
	return startStackVia(t, cfg, nil)
}

// startStackVia is startStack with the node's CDW connections passing
// through tap, when it is not nil.
func startStackVia(t *testing.T, cfg core.Config, tap *sqlTap) *stack {
	t.Helper()
	store := cloudstore.NewMemStore()
	eng := cdw.NewEngine(store, cdw.Options{})
	srv := cdwnet.NewServer(eng)
	cdwAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cfg.CDWAddr = cdwAddr
	if tap != nil {
		cfg.CDWAddr = tap.listen(t, cdwAddr)
	}
	node := core.NewNode(cfg, store)
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return &stack{store: store, eng: eng, node: node, addr: addr}
}

// figure5Data is the data file of Figure 5(a).
const figure5Data = `123|Smith|2012-01-01
456|Brown|xxxx
789|Brown|yyyyy
123|Jones|2012-12-01
157|Jones|2012-12-01
`

// example21Script builds the Example 2.1 script with optional extra options
// on the .begin import line.
func example21Script(opts string) string {
	return fmt.Sprintf(`
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER
	errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV%s;
.dml label InsApply;
insert into PROD.CUSTOMER values (
	trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
.import infile input.txt
	format vartext '|' layout CustLayout
	apply InsApply;
.end load;
`, opts)
}

const customerDDL = `CREATE TABLE PROD.CUSTOMER (
	CUST_ID VARCHAR(5) NOT NULL,
	CUST_NAME VARCHAR(50),
	JOIN_DATE DATE,
	PRIMARY KEY (CUST_ID))`

func runScript(t *testing.T, addr, script string, files map[string]string, opts etlclient.Options) *etlclient.Result {
	t.Helper()
	s, err := etlscript.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	opts.Addr = addr
	opts.ReadFile = func(name string) ([]byte, error) {
		data, ok := files[name]
		if !ok {
			return nil, fmt.Errorf("no such test file %q", name)
		}
		return []byte(data), nil
	}
	res, err := etlclient.Run(s, opts)
	if err != nil {
		t.Fatalf("script run failed: %v", err)
	}
	return res
}

func mustEng(t *testing.T, eng *cdw.Engine, sql string) *cdw.Result {
	t.Helper()
	res, err := eng.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", sql, err)
	}
	return res
}

// TestFigure5Example21 reproduces the paper's worked example end to end
// through the virtualizer: bad dates land in the ET table, the uniqueness
// violation lands in the UV table, and the loadable tuples reach the target.
func TestFigure5Example21(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)

	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{ChunkRecords: 2})
	ir := res.Imports[0]
	if ir.RowsSent != 5 || ir.RowsStaged != 5 || ir.DataErrors != 0 {
		t.Errorf("acquisition: %+v", ir)
	}
	if ir.Inserted != 2 {
		t.Errorf("inserted = %d, want 2", ir.Inserted)
	}
	if ir.ErrorsET != 2 || ir.ErrorsUV != 1 {
		t.Errorf("errors: ET=%d UV=%d, want 2/1", ir.ErrorsET, ir.ErrorsUV)
	}

	// target table: rows 1 and 5 (Figure 5(d))
	rows := mustEng(t, st.eng, "SELECT cust_id, cust_name FROM PROD.CUSTOMER ORDER BY cust_id").Rows
	if len(rows) != 2 || rows[0][0].S != "123" || rows[0][1].S != "Smith" ||
		rows[1][0].S != "157" || rows[1][1].S != "Jones" {
		t.Errorf("target rows: %v", rows)
	}

	// ET table: rows 2 and 3 with the date-conversion code (Figure 5(b))
	et := mustEng(t, st.eng, "SELECT SEQNO, ERRCODE, ERRFIELD FROM PROD.CUSTOMER_ET ORDER BY SEQNO").Rows
	if len(et) != 2 {
		t.Fatalf("ET rows: %v", et)
	}
	for i, want := range []int64{2, 3} {
		if et[i][0].I != want || et[i][1].I != cdw.CodeDateConv {
			t.Errorf("ET row %d: %v", i, et[i])
		}
		if !strings.Contains(et[i][2].S, "JOIN_DATE") {
			t.Errorf("ET field: %v", et[i][2])
		}
	}

	// UV table: row 4 with the uniqueness code (Figure 5(c))
	uv := mustEng(t, st.eng, "SELECT SEQNO, ERRCODE, ERRMSG FROM PROD.CUSTOMER_UV").Rows
	if len(uv) != 1 || uv[0][0].I != 4 || uv[0][1].I != cdw.CodeUniqueness {
		t.Fatalf("UV rows: %v", uv)
	}
	if !strings.Contains(uv[0][2].S, "123|Jones|2012-12-01") {
		t.Errorf("UV message should carry the violating tuple: %q", uv[0][2].S)
	}

	// staging table dropped after EndLoad
	if _, err := st.eng.ExecSQL("SELECT * FROM etl_stage.job_1"); err == nil {
		t.Error("staging table survived EndLoad")
	}
	// uploaded objects cleaned up
	keys, _ := st.store.List("jobs/")
	if len(keys) != 0 {
		t.Errorf("leftover objects: %v", keys)
	}
}

// TestFigure6MaxErrors reproduces Figure 6: with max_errors=2 the first two
// bad tuples are recorded individually and the remaining failing range
// (rows 4-5) becomes one block entry with code 9057.
func TestFigure6MaxErrors(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)

	res := runScript(t, st.addr, example21Script("\n\tmaxerrors 2"),
		map[string]string{"input.txt": figure5Data}, etlclient.Options{ChunkRecords: 5})
	ir := res.Imports[0]
	if ir.Inserted != 1 {
		t.Errorf("inserted = %d, want 1 (row 5 is blocked with row 4)", ir.Inserted)
	}

	et := mustEng(t, st.eng, "SELECT SEQNO, SEQNO_END, ERRCODE, ERRMSG FROM PROD.CUSTOMER_ET ORDER BY SEQNO").Rows
	if len(et) != 3 {
		t.Fatalf("ET rows: %v", et)
	}
	if et[0][0].I != 2 || et[0][2].I != cdw.CodeDateConv {
		t.Errorf("ET row 0: %v", et[0])
	}
	if et[1][0].I != 3 || et[1][2].I != cdw.CodeDateConv {
		t.Errorf("ET row 1: %v", et[1])
	}
	if et[2][0].I != 4 || et[2][1].I != 5 || et[2][2].I != 9057 {
		t.Errorf("block entry: %v", et[2])
	}
	if !strings.Contains(et[2][3].S, "(4, 5)") {
		t.Errorf("block message: %q", et[2][3].S)
	}
	uv := mustEng(t, st.eng, "SELECT count(*) FROM PROD.CUSTOMER_UV").Rows
	if uv[0][0].I != 0 {
		t.Errorf("UV rows recorded despite block: %v", uv)
	}
}

// TestCleanLoadSingleStatement verifies the no-error fast path: one DML
// statement for the whole staged range, no error-table entries.
func TestCleanLoadSingleStatement(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	clean := "1|Alpha|2020-01-01\n2|Beta|2020-01-02\n3|Gamma|2020-01-03\n4|Delta|2020-01-04\n"
	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": clean},
		etlclient.Options{ChunkRecords: 2})
	ir := res.Imports[0]
	if ir.Inserted != 4 || ir.ErrorsET != 0 || ir.ErrorsUV != 0 {
		t.Errorf("result: %+v", ir)
	}
	reports := st.node.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports: %d", len(reports))
	}
	r := reports[0]
	// dup-check (2 queries) + 1 insert = 1 apply attempt
	if r.ApplyStmts != 1 {
		t.Errorf("apply stmts = %d, want 1", r.ApplyStmts)
	}
	if r.RowsIn != 4 || r.RowsStaged != 4 || r.Chunks != 2 {
		t.Errorf("report: %+v", r)
	}
	if r.Acquisition <= 0 {
		t.Errorf("acquisition duration missing: %+v", r)
	}
}

// TestParallelSessionsAndLargeLoad pushes a larger load through multiple
// parallel data sessions and verifies counts survive the full pipeline.
func TestParallelSessionsAndLargeLoad(t *testing.T) {
	st := startStack(t, core.Config{
		FileSizeThreshold: 8 << 10, // force several intermediate files
		Converters:        4,
		FileWriters:       2,
	})
	mustEng(t, st.eng, customerDDL)

	var sb strings.Builder
	const n = 5000
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d|Customer %d|2021-%02d-%02d\n", i, i, 1+i%12, 1+i%28)
	}
	script := example21Script(" sessions 4")
	res := runScript(t, st.addr, script, map[string]string{"input.txt": sb.String()},
		etlclient.Options{ChunkRecords: 100})
	ir := res.Imports[0]
	if ir.Inserted != n || ir.ErrorsET != 0 || ir.ErrorsUV != 0 {
		t.Errorf("result: %+v", ir)
	}
	count := mustEng(t, st.eng, "SELECT count(*) FROM PROD.CUSTOMER").Rows[0][0].I
	if count != n {
		t.Errorf("target count = %d", count)
	}
	r := st.node.Reports()[0]
	if r.FilesWritten < 2 {
		t.Errorf("expected multiple intermediate files, got %d", r.FilesWritten)
	}
	if st.node.Credits().Acquires < int64(r.Chunks) {
		t.Errorf("credits not exercised: %+v", st.node.Credits())
	}
}

// TestGzipUpload runs the same load with compression enabled.
func TestGzipUpload(t *testing.T) {
	st := startStack(t, core.Config{Gzip: true, FileSizeThreshold: 4 << 10})
	mustEng(t, st.eng, customerDDL)
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d|Name %d|2021-01-01\n", i, i)
	}
	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": sb.String()},
		etlclient.Options{ChunkRecords: 100})
	if res.Imports[0].Inserted != 1000 {
		t.Errorf("inserted = %d", res.Imports[0].Inserted)
	}
	r := st.node.Reports()[0]
	if r.BytesUpload >= r.BytesIn {
		t.Errorf("gzip did not shrink upload: up=%d in=%d", r.BytesUpload, r.BytesIn)
	}
}

// TestAcquisitionDataErrors checks that malformed records are rejected
// during acquisition and recorded in the ET table with their row numbers.
func TestAcquisitionDataErrors(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	data := "1|Good|2020-01-01\nonly|two\n3|AlsoGood|2020-01-03\nwaytoolong|x|2020-01-01\n"
	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": data},
		etlclient.Options{ChunkRecords: 10})
	ir := res.Imports[0]
	if ir.DataErrors != 2 || ir.RowsStaged != 2 || ir.Inserted != 2 {
		t.Errorf("result: %+v", ir)
	}
	et := mustEng(t, st.eng, "SELECT SEQNO FROM PROD.CUSTOMER_ET ORDER BY SEQNO").Rows
	if len(et) != 2 || et[0][0].I != 2 || et[1][0].I != 4 {
		t.Errorf("ET: %v", et)
	}
}

// TestIndicatorFormatImport loads binary indicator-mode input with typed
// fields through the virtualizer.
func TestIndicatorFormatImport(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, `CREATE TABLE sales (id BIGINT, amount DECIMAL(10,2), sold DATE)`)

	layout := &ltype.Layout{Name: "SalesLayout", Fields: []ltype.Field{
		{Name: "ID", Type: ltype.Simple(ltype.KindInteger)},
		{Name: "AMOUNT", Type: ltype.Decimal(10, 2)},
		{Name: "SOLD", Type: ltype.Simple(ltype.KindDate)},
	}}
	var data []byte
	var err error
	for i := 1; i <= 50; i++ {
		dec := ltype.IntValue(ltype.KindDecimal, int64(i*100+25))
		dec.S = ltype.FormatDecimal(dec.I, 2)
		data, err = ltype.EncodeRecord(data, layout, ltype.Record{
			ltype.IntValue(ltype.KindInteger, int64(i)),
			dec,
			ltype.DateValue(2022, 1+i%12, 1+i%28),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	script := `
.logon host/user,pass;
.layout SalesLayout;
.field ID integer;
.field AMOUNT decimal(10,2);
.field SOLD date;
.begin import tables sales;
.dml label Ins;
insert into sales values (:ID, :AMOUNT, :SOLD);
.import infile sales.dat format indicator layout SalesLayout apply Ins;
.end load;
`
	res := runScript(t, st.addr, script, map[string]string{"sales.dat": string(data)},
		etlclient.Options{ChunkRecords: 7})
	if res.Imports[0].Inserted != 50 {
		t.Errorf("inserted = %d", res.Imports[0].Inserted)
	}
	rows := mustEng(t, st.eng, "SELECT amount FROM sales WHERE id = 3").Rows
	if len(rows) != 1 || rows[0][0].Render() != "3.25" {
		t.Errorf("decimal round trip: %v", rows)
	}
	rows = mustEng(t, st.eng, "SELECT sold FROM sales WHERE id = 1").Rows
	if rows[0][0].Render() != "2022-02-02" {
		t.Errorf("date round trip: %v", rows[0][0].Render())
	}
}

// TestUpdateAndDeleteDML exercises the non-insert application paths.
func TestUpdateAndDeleteDML(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	mustEng(t, st.eng, `INSERT INTO PROD.CUSTOMER VALUES
		('1', 'Old One', '2010-01-01'), ('2', 'Old Two', '2010-01-02'), ('3', 'Keep', '2010-01-03')`)

	updScript := `
.logon host/user,pass;
.layout KV;
.field K varchar(5);
.field V varchar(50);
.begin import tables PROD.CUSTOMER errortables PROD.UPD_ET PROD.UPD_UV;
.dml label Upd;
update PROD.CUSTOMER set CUST_NAME = trim(:V) where CUST_ID = trim(:K);
.import infile upd.txt format vartext '|' layout KV apply Upd;
.end load;
`
	res := runScript(t, st.addr, updScript, map[string]string{"upd.txt": "1|New One\n2|New Two\n"},
		etlclient.Options{})
	if res.Imports[0].Updated != 2 {
		t.Errorf("updated = %d", res.Imports[0].Updated)
	}
	rows := mustEng(t, st.eng, "SELECT cust_name FROM PROD.CUSTOMER ORDER BY cust_id").Rows
	if rows[0][0].S != "New One" || rows[1][0].S != "New Two" || rows[2][0].S != "Keep" {
		t.Errorf("after update: %v", rows)
	}

	delScript := `
.logon host/user,pass;
.layout K1;
.field K varchar(5);
.begin import tables PROD.CUSTOMER errortables PROD.DEL_ET PROD.DEL_UV;
.dml label Del;
delete from PROD.CUSTOMER where CUST_ID = trim(:K);
.import infile del.txt format vartext '|' layout K1 apply Del;
.end load;
`
	res = runScript(t, st.addr, delScript, map[string]string{"del.txt": "1\n3\n"}, etlclient.Options{})
	if res.Imports[0].Deleted != 2 {
		t.Errorf("deleted = %d", res.Imports[0].Deleted)
	}
	if n := mustEng(t, st.eng, "SELECT count(*) FROM PROD.CUSTOMER").Rows[0][0].I; n != 1 {
		t.Errorf("remaining = %d", n)
	}
}

// TestExportJob round-trips data out through parallel export sessions.
func TestExportJob(t *testing.T) {
	st := startStack(t, core.Config{ExportChunkRows: 10})
	mustEng(t, st.eng, customerDDL)
	for i := 0; i < 95; i++ {
		mustEng(t, st.eng, fmt.Sprintf(
			"INSERT INTO PROD.CUSTOMER VALUES ('%03d', 'Name %d', '2020-01-01')", i, i))
	}
	script := `
.logon host/user,pass;
.begin export outfile out.txt format vartext '|' sessions 3;
SEL CUST_ID, CUST_NAME FROM PROD.CUSTOMER WHERE CUST_ID < '090' ORDER BY CUST_ID;
.end export;
`
	s, err := etlscript.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	opts := etlclient.Options{
		Addr:      st.addr,
		WriteFile: func(name string, data []byte) error { out = data; return nil },
	}
	res, err := etlclient.Run(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exports[0].Rows != 90 {
		t.Errorf("exported %d rows", res.Exports[0].Rows)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 90 {
		t.Fatalf("output lines: %d", len(lines))
	}
	sorted := sort.StringsAreSorted(lines)
	if !sorted {
		t.Error("export chunks reassembled out of order")
	}
	if lines[0] != "000|Name 0" {
		t.Errorf("first line: %q", lines[0])
	}
}

// TestRunSQLThroughVirtualizer checks the Beta path: legacy SQL in, legacy
// result records out.
func TestRunSQLThroughVirtualizer(t *testing.T) {
	st := startStack(t, core.Config{})
	lg := etlscript.Logon{User: "u", Password: "p"}
	if _, err := etlclient.Exec(st.addr, lg, customerDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := etlclient.Exec(st.addr, lg,
		"INSERT INTO PROD.CUSTOMER VALUES ('1', 'Alpha', DATE '2020-06-15')"); err != nil {
		t.Fatal(err)
	}
	layout, rows, err := etlclient.QueryRows(st.addr, lg,
		"SEL CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0][0].S != "1" || rows[0][1].S != "Alpha" {
		t.Errorf("row: %v", rows[0])
	}
	// legacy DATE comes back in the legacy integer encoding
	if layout.Fields[2].Type.Kind != ltype.KindDate {
		t.Errorf("date field type: %v", layout.Fields[2].Type)
	}
	if rows[0][2].Text() != "2020-06-15" {
		t.Errorf("date text: %q", rows[0][2].Text())
	}
	// a failing statement produces a Failure, and the session survives
	if _, err := etlclient.Exec(st.addr, lg, "SELECT * FROM nope"); err == nil {
		t.Error("missing table accepted")
	}
}

// TestSchemaMapping verifies the node-level schema rename applied during
// cross compilation.
func TestSchemaMapping(t *testing.T) {
	st := startStack(t, core.Config{SchemaMap: map[string]string{"PROD": "analytics"}})
	mustEng(t, st.eng, `CREATE TABLE analytics.customer (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE)`)
	clean := "1|Alpha|2020-01-01\n"
	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": clean},
		etlclient.Options{})
	if res.Imports[0].Inserted != 1 {
		t.Errorf("inserted = %d", res.Imports[0].Inserted)
	}
	n := mustEng(t, st.eng, "SELECT count(*) FROM analytics.customer").Rows[0][0].I
	if n != 1 {
		t.Errorf("mapped target count = %d", n)
	}
}

// TestConcurrentJobsSharedCreditManager runs two imports at once against one
// node, per the paper's one-CreditManager-per-node design.
func TestConcurrentJobsSharedCreditManager(t *testing.T) {
	st := startStack(t, core.Config{Credits: 4})
	mustEng(t, st.eng, `CREATE TABLE t1 (k VARCHAR(5), v VARCHAR(50))`)
	mustEng(t, st.eng, `CREATE TABLE t2 (k VARCHAR(5), v VARCHAR(50))`)
	script := func(table string) string {
		return fmt.Sprintf(`
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field V varchar(50);
.begin import tables %s;
.dml label I;
insert into %s values (:K, :V);
.import infile in.txt format vartext '|' layout L apply I;
.end load;
`, table, table)
	}
	var data strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&data, "%d|value %d\n", i, i)
	}
	errCh := make(chan error, 2)
	for _, tbl := range []string{"t1", "t2"} {
		go func(tbl string) {
			s, err := etlscript.Parse(script(tbl))
			if err != nil {
				errCh <- err
				return
			}
			_, err = etlclient.Run(s, etlclient.Options{
				Addr:         st.addr,
				ChunkRecords: 50,
				ReadFile:     func(string) ([]byte, error) { return []byte(data.String()), nil },
			})
			errCh <- err
		}(tbl)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent jobs timed out")
		}
	}
	for _, tbl := range []string{"t1", "t2"} {
		if n := mustEng(t, st.eng, "SELECT count(*) FROM "+tbl).Rows[0][0].I; n != 2000 {
			t.Errorf("%s count = %d", tbl, n)
		}
	}
}

// TestMemBudgetOOM reproduces the paper's out-of-memory failure: a huge
// credit pool with a small memory budget makes acquisition fail instead of
// thrashing (§9 Figure 10).
func TestMemBudgetOOM(t *testing.T) {
	st := startStack(t, core.Config{Credits: 1_000_000, MemBudget: 2048})
	mustEng(t, st.eng, customerDDL)
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d|%s|2020-01-01\n", i, strings.Repeat("x", 40))
	}
	s, err := etlscript.Parse(example21Script(""))
	if err != nil {
		t.Fatal(err)
	}
	_, err = etlclient.Run(s, etlclient.Options{
		Addr:         st.addr,
		ChunkRecords: 50,
		ReadFile:     func(string) ([]byte, error) { return []byte(sb.String()), nil },
	})
	if err == nil {
		t.Fatal("load with blown memory budget succeeded")
	}
	if !strings.Contains(err.Error(), "memory") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestUpsertDML exercises the legacy atomic upsert (UPDATE ... ELSE INSERT)
// through the virtualizer: existing keys update, new keys insert.
func TestUpsertDML(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	mustEng(t, st.eng, `INSERT INTO PROD.CUSTOMER VALUES
		('1', 'Old One', '2010-01-01'), ('2', 'Old Two', '2010-01-02')`)

	script := `
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
	data := "1|New One|2020-01-01\n3|Fresh Three|2020-03-03\n2|New Two|2020-02-02\n4|Fresh Four|2020-04-04\n"
	res := runScript(t, st.addr, script, map[string]string{"up.txt": data}, etlclient.Options{ChunkRecords: 2})
	ir := res.Imports[0]
	if ir.Updated != 2 || ir.Inserted != 2 {
		t.Errorf("upsert counts: updated=%d inserted=%d", ir.Updated, ir.Inserted)
	}
	rows := mustEng(t, st.eng, "SELECT cust_id, cust_name FROM PROD.CUSTOMER ORDER BY cust_id").Rows
	want := map[string]string{"1": "New One", "2": "New Two", "3": "Fresh Three", "4": "Fresh Four"}
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	for _, r := range rows {
		if want[r[0].S] != r[1].S {
			t.Errorf("row %s = %q, want %q", r[0].S, r[1].S, want[r[0].S])
		}
	}
}

// TestUpsertWithErrors mixes a bad date into the upsert input: the bad
// tuple lands in the ET table and the rest applies.
func TestUpsertWithErrors(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	mustEng(t, st.eng, `INSERT INTO PROD.CUSTOMER VALUES ('1', 'Old', '2010-01-01')`)
	script := `
.logon host/user,pass;
.layout KV;
.field K varchar(5);
.field V varchar(50);
.field D varchar(10);
.begin import tables PROD.CUSTOMER errortables PROD.UP_ET PROD.UP_UV;
.dml label Up;
update PROD.CUSTOMER set CUST_NAME = trim(:V), JOIN_DATE = cast(:D as DATE format 'YYYY-MM-DD')
	where CUST_ID = trim(:K)
else insert into PROD.CUSTOMER values (trim(:K), trim(:V),
	cast(:D as DATE format 'YYYY-MM-DD'));
.import infile up.txt format vartext '|' layout KV apply Up;
.end load;
`
	data := "1|Updated|2020-01-01\n2|BadDate|xxxx\n3|Fine|2020-03-03\n"
	res := runScript(t, st.addr, script, map[string]string{"up.txt": data}, etlclient.Options{ChunkRecords: 3})
	ir := res.Imports[0]
	if ir.Updated != 1 || ir.Inserted != 1 || ir.ErrorsET != 1 {
		t.Errorf("counts: %+v", ir)
	}
	et := mustEng(t, st.eng, "SELECT SEQNO FROM PROD.UP_ET").Rows
	if len(et) != 1 || et[0][0].I != 2 {
		t.Errorf("ET: %v", et)
	}
}

// TestJobAbortOnDisconnect verifies that a client vanishing mid-job does not
// leak the job: the staging table is dropped, uploads are deleted, the job is
// deregistered and its goroutines and credits are gone. The client dies with
// uploaded files still waiting in the copy scheduler (a manifest size no job
// this small reaches), and the abort must not COPY them into a staging table
// it is about to drop.
func TestJobAbortOnDisconnect(t *testing.T) {
	st := startStack(t, core.Config{
		FileSizeThreshold: 64, // a spool file per chunk or so
		FileWriters:       1,
		CopyBatchFiles:    1000,
	})
	mustEng(t, st.eng, customerDDL)

	conn, err := wire.Dial(st.addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(0, &wire.Logon{User: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLogonOK); err != nil {
		t.Fatal(err)
	}
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "K", Type: ltype.VarChar(5)},
		{Name: "V", Type: ltype.VarChar(50)},
		{Name: "D", Type: ltype.VarChar(10)},
	}}
	if err := conn.Send(0, &wire.BeginLoad{
		Table: "PROD.CUSTOMER", Layout: layout,
		Format: wire.FormatVartext, Delim: '|', Sessions: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Expect(wire.KindLoadOK)
	if err != nil {
		t.Fatal(err)
	}
	jobID := m.(*wire.LoadOK).JobID
	// push a few chunks, then vanish without EndAcquire/EndLoad
	for i := 0; i < 6; i++ {
		var payload strings.Builder
		for r := 1; r <= 4; r++ {
			fmt.Fprintf(&payload, "%d|some customer name %d|2020-01-01\n", i*4+r, i*4+r)
		}
		if err := conn.Send(0, &wire.DataChunk{
			JobID: jobID, Seq: uint64(i), FirstRow: uint64(i*4 + 1), Count: 4, Payload: []byte(payload.String()),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Expect(wire.KindChunkAck); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "uploads pending in the copy scheduler", func() bool {
		jobs := st.node.ActiveJobs()
		return len(jobs) == 1 && jobs[0].FilesUploaded >= 2 && jobs[0].CopyQueue >= 2
	})
	conn.Close()

	// the node must clean the job up: staging table gone, job deregistered
	waitFor(t, "staging table dropped and abort reported", func() bool {
		_, stagingErr := st.eng.ExecSQL(fmt.Sprintf("SELECT count(*) FROM etl_stage.job_%d", jobID))
		return stagingErr != nil && len(st.node.Reports()) == 1
	})
	keys, _ := st.store.List("jobs/")
	if len(keys) != 0 {
		t.Errorf("leaked objects: %v", keys)
	}
	if v := metricValue(t, metricsDump(t, st.node), "etlvirt_copy_statements_total"); v != 0 {
		t.Errorf("aborted job issued %v COPY statement(s) into a staging table it then dropped", v)
	}
	if cs := st.node.Credits(); cs.InFlight != 0 || cs.Available != cs.Total {
		t.Errorf("credits leaked by the aborted job: %+v", cs)
	}
	waitFor(t, "job goroutines to exit", func() bool {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		return !bytes.Contains(stacks, []byte("(*importJob)"))
	})
}

// TestNodeCloseReapsJobs is the node-shutdown counterpart of
// TestJobAbortOnDisconnect: Close on a node holding an import mid-acquisition
// (chunks acked, uploads waiting in the copy scheduler), a stream with
// buffered, uncommitted deltas and an open debug listener must return
// promptly, leave no goroutine running core code behind — job stages, the
// acceptor, the per-connection goroutines, the debug server — and hand every
// credit back.
func TestNodeCloseReapsJobs(t *testing.T) {
	st := startStack(t, core.Config{
		FileSizeThreshold: 64,
		FileWriters:       1,
		CopyBatchFiles:    1000,
	})
	mustEng(t, st.eng, customerDDL)
	if _, err := st.node.ServeDebug("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	imp := dialStream(t, st.addr)
	defer imp.Close()
	if err := imp.Send(0, &wire.BeginLoad{
		Table: "PROD.CUSTOMER", Layout: custLayout(),
		Format: wire.FormatVartext, Delim: '|', Sessions: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := imp.Expect(wire.KindLoadOK)
	if err != nil {
		t.Fatal(err)
	}
	jobID := m.(*wire.LoadOK).JobID
	for i := 0; i < 6; i++ {
		var payload strings.Builder
		for r := 1; r <= 4; r++ {
			fmt.Fprintf(&payload, "%d|some customer name %d|2020-01-01\n", i*4+r, i*4+r)
		}
		if err := imp.Send(0, &wire.DataChunk{
			JobID: jobID, Seq: uint64(i), FirstRow: uint64(i*4 + 1), Count: 4, Payload: []byte(payload.String()),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := imp.Expect(wire.KindChunkAck); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "uploads pending in the copy scheduler", func() bool {
		jobs := st.node.ActiveJobs()
		return len(jobs) == 1 && jobs[0].CopyQueue >= 2
	})

	cdc := dialStream(t, st.addr)
	defer cdc.Close()
	ok := beginStream(t, cdc, "close_reap", "")
	p := vtDelta(nil, stream.OpInsert, "00001", "Name", "2024-01-01")
	if ack := sendFrame(t, cdc, ok.StreamID, 1, 1, p); ack.CommittedSeq != 0 {
		t.Fatalf("unexpected commit %d", ack.CommittedSeq)
	}
	var open bool
	for _, j := range st.node.ActiveJobs() {
		open = open || (j.Kind == "stream" && j.Deltas == 1 && j.Watermark == 0)
	}
	if !open {
		t.Fatalf("stream has no uncommitted batch before Close: %+v", st.node.ActiveJobs())
	}

	closed := make(chan struct{})
	go func() {
		st.node.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Node.Close did not return within 5s")
	}
	deadline := time.Now().Add(5 * time.Second)
	for left := coreGoroutines(); len(left) > 0; left = coreGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) in core outlived Close:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cs := st.node.Credits(); cs.InFlight != 0 || cs.Available != cs.Total {
		t.Errorf("credits not returned by Close: %+v", cs)
	}
}

// coreGoroutines returns the stack of every live goroutine that runs, or was
// started by, code in etlvirt/internal/core.
func coreGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "etlvirt/internal/core.") {
			out = append(out, g)
		}
	}
	return out
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProtocolRobustness throws malformed input at the node: garbage bytes,
// wrong first message, truncated frames. The node must refuse politely and
// keep serving.
func TestProtocolRobustness(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)

	// raw garbage
	if nc, err := netDial(st.addr); err == nil {
		nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
		buf := make([]byte, 64)
		nc.Read(buf)
		nc.Close()
	}
	// valid frame, wrong opening message
	if conn, err := wire.Dial(st.addr); err == nil {
		conn.Send(0, &wire.RunSQL{SQL: "SELECT 1"})
		conn.Close()
	}
	// logon then nonsense kind for the state (chunk for unknown job)
	conn, err := wire.Dial(st.addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(0, &wire.Logon{User: "u"})
	if _, err := conn.Expect(wire.KindLogonOK); err != nil {
		t.Fatal(err)
	}
	conn.Send(0, &wire.DataChunk{JobID: 999, Payload: []byte("x")})
	if _, err := conn.Expect(wire.KindChunkAck); err == nil {
		t.Error("chunk for unknown job acked")
	}
	conn.Close()

	// after all the abuse, a normal session still works
	clean := "1|Alpha|2020-01-01\n"
	res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": clean},
		etlclient.Options{})
	if res.Imports[0].Inserted != 1 {
		t.Errorf("node unhealthy after abuse: %+v", res.Imports[0])
	}
}

// TestUnknownJobReplies pins the reply to every job-addressed message that
// names a job the node does not know: failure 3005, and the session stays
// usable for the next request.
func TestUnknownJobReplies(t *testing.T) {
	st := startStack(t, core.Config{})
	conn, err := wire.Dial(st.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(0, &wire.Logon{User: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLogonOK); err != nil {
		t.Fatal(err)
	}
	const ghost = 424242
	for _, m := range []wire.Message{
		&wire.AttachLoad{JobID: ghost},
		&wire.DataChunk{JobID: ghost, Count: 1, FirstRow: 1, Payload: []byte("x\n")},
		&wire.EndAcquire{JobID: ghost},
		&wire.ApplyDML{JobID: ghost, SQL: "insert into T values (:A)"},
		&wire.EndLoad{JobID: ghost},
		&wire.ExportChunkRq{JobID: ghost},
		&wire.DeltaFrame{StreamID: ghost, FirstSeq: 1, Count: 1, Payload: []byte("Ix\n")},
		&wire.EndStream{StreamID: ghost},
	} {
		if err := conn.Send(0, m); err != nil {
			t.Fatalf("%s: %v", m.Kind(), err)
		}
		got, _, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s: no reply: %v", m.Kind(), err)
		}
		f, ok := got.(*wire.Failure)
		if !ok || f.Code != 3005 || f.Message != "no such job 424242" {
			t.Errorf("%s for an unknown job answered %#v, want failure 3005", m.Kind(), got)
		}
	}
}

func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// TestMultipleImportFiles loads several input files through one job block,
// with row numbering continuing across files.
func TestMultipleImportFiles(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	script := `
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label Ins;
insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME),
	cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'));
.import infile part1.txt format vartext '|' layout CustLayout apply Ins;
.import infile part2.txt format vartext '|' layout CustLayout apply Ins;
.import infile part3.txt format vartext '|' layout CustLayout apply Ins;
.end load;
`
	files := map[string]string{
		"part1.txt": "1|A|2020-01-01\n2|B|2020-01-02\n",
		"part2.txt": "3|C|xxxx\n", // row 3 overall: bad date
		"part3.txt": "4|D|2020-01-04\n5|E|2020-01-05\n",
	}
	res := runScript(t, st.addr, script, files, etlclient.Options{ChunkRecords: 2})
	ir := res.Imports[0]
	if ir.RowsSent != 5 || ir.Inserted != 4 || ir.ErrorsET != 1 {
		t.Errorf("result: %+v", ir)
	}
	// the bad row keeps its global row number across files
	et := mustEng(t, st.eng, "SELECT SEQNO FROM PROD.CUSTOMER_ET").Rows
	if len(et) != 1 || et[0][0].I != 3 {
		t.Errorf("ET: %v", et)
	}
}

// TestDebugEndpoints exercises /healthz, /metrics and /jobs.
func TestDebugEndpoints(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{})

	get := func(path string) string {
		resp, err := http.Get("http://" + dbgAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("healthz: %q", got)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"etlvirt_jobs_completed_total 1",
		"etlvirt_rows_received_total 5",
		"etlvirt_errors_et_total 2",
		"etlvirt_errors_uv_total 1",
		"etlvirt_credits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	var reports []core.JobReport
	if err := json.Unmarshal([]byte(get("/jobs")), &reports); err != nil {
		t.Fatalf("jobs JSON: %v", err)
	}
	if len(reports) != 1 || reports[0].RowsIn != 5 {
		t.Errorf("jobs: %+v", reports)
	}
}

// TestExportIndicatorFormat exports typed data in indicator-mode binary and
// decodes it with the legacy record codec — the full reverse conversion.
func TestExportIndicatorFormat(t *testing.T) {
	st := startStack(t, core.Config{ExportChunkRows: 4})
	mustEng(t, st.eng, "CREATE TABLE m (id BIGINT, amt DECIMAL(10,2), d DATE, note VARCHAR(20))")
	mustEng(t, st.eng, `INSERT INTO m VALUES
		(1, '10.50', '2020-01-01', 'alpha'),
		(2, '0.25', '2021-06-15', NULL),
		(3, NULL, NULL, 'gamma')`)
	script := `
.logon host/user,pass;
.begin export outfile out.bin format indicator sessions 2;
SELECT id, amt, d, note FROM m ORDER BY id;
.end export;
`
	s, err := etlscript.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	res, err := etlclient.Run(s, etlclient.Options{
		Addr:      st.addr,
		WriteFile: func(name string, data []byte) error { out = data; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exports[0].Rows != 3 {
		t.Fatalf("exported %d rows", res.Exports[0].Rows)
	}
	layout := &ltype.Layout{Name: "E", Fields: []ltype.Field{
		{Name: "id", Type: ltype.Simple(ltype.KindBigInt)},
		{Name: "amt", Type: ltype.Decimal(10, 2)},
		{Name: "d", Type: ltype.Simple(ltype.KindDate)},
		{Name: "note", Type: ltype.VarChar(20)},
	}}
	var recs []ltype.Record
	rest := out
	for len(rest) > 0 {
		rec, n, err := ltype.DecodeRecord(rest, layout)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		recs = append(recs, rec)
		rest = rest[n:]
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records", len(recs))
	}
	if recs[0][0].I != 1 || recs[0][1].S != "10.50" || recs[0][2].Text() != "2020-01-01" || recs[0][3].S != "alpha" {
		t.Errorf("rec0: %+v", recs[0])
	}
	if !recs[1][3].Null || !recs[2][1].Null || !recs[2][2].Null {
		t.Errorf("NULLs lost: %+v %+v", recs[1], recs[2])
	}
}
