package etlvirt_test

import (
	"testing"

	"etlvirt/internal/scrub"
	"etlvirt/internal/testhost"
)

// TestRangePruneBadKeyOutsideRange: a staged row whose key cast fails must
// cost exactly one ET row, as on the legacy EDW. Every range the error
// handler applies runs the target-collision query, which joins the staged
// rows to the target; that join must not evaluate the key expression on
// staged rows outside the range, or once the target holds a row every later
// range fails on row 3's key and lands in the ET table too.
func TestRangePruneBadKeyOutsideRange(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field V varchar(10);
.begin import tables T1 errortables T1_ET T1_UV;
.dml label Ins;
insert into T1 values (cast(:K as INTEGER), :V);
.import infile input.txt format vartext '|' layout L apply Ins;
.end load;
`
	const ddl = "CREATE TABLE T1 (K INTEGER NOT NULL, V VARCHAR(10), PRIMARY KEY (K))"
	files := map[string][]byte{"input.txt": []byte("1|a\n2|b\nxx|c\n4|d\n5|e\n6|f\n7|g\n8|h\n")}

	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: []string{ddl}})
	edwRes, _ := p.Run(t, p.EDWAddr, script, files)
	virtRes, _ := p.Run(t, p.NodeAddr, script, files)

	l, v := edwRes.Imports[0], virtRes.Imports[0]
	if l.Inserted != 7 || l.ErrorsET != 1 || l.ErrorsUV != 0 {
		t.Fatalf("edw reference outcome %+v, want 7 inserted and 1 ET row", l)
	}
	if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
		t.Errorf("outcomes differ (seed %d):\n edw:  %+v\n virt: %+v", seed, l, v)
	}
	rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{{Name: "T1", ErrTables: []string{"T1_ET", "T1_UV"}}}})
	if !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}
