package etlvirt_test

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/testhost"
)

// TestBinariesEndToEnd builds the real binaries and runs the full
// multi-process deployment: cdwd (warehouse + object store directory),
// etlvirtd (virtualizer), and etlrun (legacy client) — the topology of
// Figure 1 with the virtualizer spliced in.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and orchestrates real binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}

	storeDir := filepath.Join(dir, "store")
	cdwAddr := testhost.FreeAddr(t)
	cdwDebug := testhost.FreeAddr(t)
	nodeAddr := testhost.FreeAddr(t)

	ddl := filepath.Join(dir, "init.sql")
	if err := os.WriteFile(ddl, []byte(`CREATE TABLE PROD.CUSTOMER (
		CUST_ID VARCHAR(5) NOT NULL,
		CUST_NAME VARCHAR(50),
		JOIN_DATE DATE,
		PRIMARY KEY (CUST_ID));`), 0o644); err != nil {
		t.Fatal(err)
	}

	testhost.StartProc(t, filepath.Join(bin, "cdwd"),
		"-listen", cdwAddr, "-store", storeDir, "-init", ddl, "-debug", cdwDebug)
	testhost.WaitListening(t, cdwAddr)

	testhost.StartProc(t, filepath.Join(bin, "etlvirtd"),
		"-listen", nodeAddr, "-cdw", cdwAddr, "-store", storeDir)
	testhost.WaitListening(t, nodeAddr)

	// job script + input on disk, exactly as an operator would run it
	input := filepath.Join(dir, "input.txt")
	if err := os.WriteFile(input,
		[]byte("123|Smith|2012-01-01\n456|Brown|xxxx\n157|Jones|2012-12-01\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "job.etl")
	if err := os.WriteFile(script, []byte(fmt.Sprintf(`
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
.import infile %s format vartext '|' layout CustLayout apply InsApply;
.end load;
`, input)), 0o644); err != nil {
		t.Fatal(err)
	}

	// A reference EDW runs the same job first, so the virtualized run can be
	// differentially scrubbed against it in the same invocation.
	edwAddr := testhost.FreeAddr(t)
	testhost.StartProc(t, filepath.Join(bin, "edwd"),
		"-listen", edwAddr, "-init", ddl)
	testhost.WaitListening(t, edwAddr)
	run := exec.Command(filepath.Join(bin, "etlrun"), "-addr", edwAddr, script)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("etlrun against edwd: %v\n%s", err, out)
	}

	run = exec.Command(filepath.Join(bin, "etlrun"),
		"-addr", nodeAddr, "-scrub", edwAddr, script)
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("etlrun: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "inserted=2") || !strings.Contains(text, "errET=1") {
		t.Errorf("etlrun output:\n%s", text)
	}
	if !strings.Contains(text, "scrub CLEAN") {
		t.Errorf("etlrun -scrub output:\n%s", text)
	}

	// verify through the legacy protocol that the data landed
	lg := etlscript.Logon{User: "u", Password: "p"}
	_, rows, err := etlclient.QueryRows(nodeAddr, lg,
		"SEL CUST_ID FROM PROD.CUSTOMER ORDER BY CUST_ID")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].S != "123" || rows[1][0].S != "157" {
		t.Errorf("rows: %v", rows)
	}

	// The warehouse counts the rows its scans copied out of base tables.
	resp, err := http.Get("http://" + cdwDebug + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var scanned int64
	for _, line := range strings.Split(string(metrics), "\n") {
		fmt.Sscanf(line, "etlvirt_cdwd_rows_scanned_total %d", &scanned)
	}
	if scanned == 0 {
		t.Errorf("cdwd /metrics reports no rows scanned:\n%s", metrics)
	}

	// The dedicated scrub binary verifies the same pair with an explicit
	// table list — the operator entry point that needs no job script.
	run = exec.Command(filepath.Join(bin, "etlscrub"),
		"-ref", edwAddr, "-subject", nodeAddr,
		"PROD.CUSTOMER:PROD.CUSTOMER_ET,PROD.CUSTOMER_UV")
	out, err = run.CombinedOutput()
	if err != nil {
		t.Fatalf("etlscrub: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "scrub CLEAN") {
		t.Errorf("etlscrub output:\n%s", out)
	}
}
