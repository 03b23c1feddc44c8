package core_test

import (
	"testing"

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
