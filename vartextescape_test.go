package etlvirt_test

import (
	"reflect"
	"testing"

	"etlvirt/internal/cdw"
	"etlvirt/internal/scrub"
	"etlvirt/internal/testhost"
)

// TestStreamVartextEscapedNewline: a vartext field may carry a
// backslash-escaped newline. A stream delta holding one must frame as one
// record on the EDW and through the virtualizer alike, and apply the same
// row an import of that line inserts: the delta's record and the import's
// line are cut by the same scan.
func TestStreamVartextEscapedNewline(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	ddl := []string{
		`CREATE TABLE PROD.IMP (K VARCHAR(5) NOT NULL, V VARCHAR(20), PRIMARY KEY (K))`,
		`CREATE TABLE PROD.STR (K VARCHAR(5) NOT NULL, V VARCHAR(20), PRIMARY KEY (K))`,
	}
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field V varchar(20);
.begin import tables PROD.IMP
	errortables PROD.IMP_ET PROD.IMP_UV;
.dml label Ins;
insert into PROD.IMP values ( :K, :V );
.import infile rows.txt format vartext '|' layout L apply Ins;
.end load;
.begin stream name esc tables PROD.STR errortables PROD.STR_ET;
.dml label Apply;
insert into PROD.STR values ( :K, :V );
.stream infile deltas.txt format vartext '|' layout L apply Apply;
.end stream;
`
	rows := "1|a\\\nb\n2|c\\\\\n3|d\n"
	files := map[string][]byte{
		"rows.txt":   []byte(rows),
		"deltas.txt": []byte("I|1|a\\\nb\nI|2|c\\\\\nI|3|d\n"),
	}

	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: ddl})
	edwRes, _ := p.Run(t, p.EDWAddr, script, files)
	virtRes, _ := p.Run(t, p.NodeAddr, script, files)
	if e, v := edwRes.Streams[0].Inserted, virtRes.Streams[0].Inserted; e != 3 || v != 3 {
		t.Errorf("stream inserted %d rows on the EDW and %d through the virtualizer, want 3 each", e, v)
	}

	want := []string{"1|a\nb", "2|c\\", "3|d"}
	for _, c := range []struct {
		name string
		eng  *cdw.Engine
		sql  string
	}{
		{"edw import", p.EDW.Engine(), "SELECT K, V FROM PROD.IMP"},
		{"edw stream", p.EDW.Engine(), "SELECT K, V FROM PROD.STR"},
		{"virt import", p.CDWEng, "SELECT K, V FROM PROD.IMP"},
		{"virt stream", p.CDWEng, "SELECT K, V FROM PROD.STR"},
	} {
		if got := testhost.State(t, c.eng, c.sql); !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows = %q, want %q", c.name, got, want)
		}
	}
	rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{
		{Name: "PROD.IMP", ErrTables: []string{"PROD.IMP_ET", "PROD.IMP_UV"}},
		{Name: "PROD.STR", ErrTables: []string{"PROD.STR_ET"}},
	}})
	if !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}
