package etlvirt_test

import (
	"fmt"
	"testing"

	"etlvirt/internal/scrub"
	"etlvirt/internal/testhost"
)

// TestLocateDifferential: the rows a located split treats specially must land
// exactly where the legacy EDW puts them. The first import's failing range is
// cut at the rows the probe names; its input holds
//
//   - row 3: a bad date whose key also repeats row 1 — ET, not UV;
//   - row 4 then row 6: row 6 repeats the key of row 4, which fails on its
//     date, so row 6 inserts;
//   - rows 7, 8, 9: one key three times — row 7 inserts, 8 and 9 are UV;
//   - row 10: the key of a row the target already holds — UV.
//
// The second import fails on a division by zero, which the probe cannot see:
// its gaps fail and are bisected. Both must match the EDW and scrub clean
// under the chaos seed.
func TestLocateDifferential(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field D varchar(10);
.field N varchar(5);
.field M varchar(5);
.begin import tables %[1]s errortables %[1]s_ET %[1]s_UV;
.dml label Ins;
insert into %[1]s values (trim(:K), cast(:D as DATE format 'YYYY-MM-DD'), cast(:N as INTEGER) / cast(:M as INTEGER));
.import infile %[1]s.txt format vartext '|' layout L apply Ins;
.end load;
`
	ddl := func(table string) string {
		return "CREATE TABLE " + table + " (K VARCHAR(5) NOT NULL, D DATE, Q INTEGER, PRIMARY KEY (K))"
	}
	files := map[string][]byte{
		"L1.txt": []byte("1|2020-01-01|4|2\n" +
			"2|2020-01-02|4|2\n" +
			"1|9999-99-99|4|2\n" + // bad date and a repeated key
			"4|2020-13-01|4|2\n" + // bad date
			"5|2020-01-05|4|2\n" +
			"4|2020-01-06|4|2\n" + // repeats the key of failed row 4
			"7|2020-01-07|4|2\n" +
			"7|2020-01-08|4|2\n" +
			"7|2020-01-09|4|2\n" +
			"999|2020-01-10|4|2\n" + // the target already holds 999
			"11|2020-01-11|4|2\n12|2020-01-12|4|2\n13|2020-01-13|4|2\n14|2020-01-14|4|2\n"),
		"L2.txt": []byte("1|2020-02-01|4|2\n2|2020-02-02|4|2\n" +
			"3|2020-02-03|4|0\n" + // division by zero
			"4|2020-02-04|4|2\n5|2020-02-05|4|2\n" +
			"6|2020-99-06|4|2\n" + // bad date
			"7|2020-02-07|4|2\n8|2020-02-08|4|2\n" +
			"9|2020-02-09|4|0\n" + // division by zero
			"10|2020-02-10|4|2\n11|2020-02-11|4|2\n12|2020-02-12|4|2\n"),
	}
	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: []string{
		ddl("L1"), ddl("L2"), "INSERT INTO L1 VALUES ('999', DATE '2019-12-31', 0)",
	}})

	for i, tc := range []struct {
		table                 string
		inserted, et, uv      int64
		locates, locateMisses int64
		stmts                 int64
	}{
		// 1..14, then 1..2, 3, 4, 5, 6, 7, 8, 9, 10, 11..14
		{"L1", 9, 2, 3, 1, 0, 11},
		// 1..12; 1..5 (bisected: 1..3, 1..2, 3, 4..5); 6; 7..12 (7..9, 7..8, 9, 10..12)
		{"L2", 9, 3, 0, 1, 2, 12},
	} {
		s := fmt.Sprintf(script, tc.table)
		in := map[string][]byte{tc.table + ".txt": files[tc.table+".txt"]}
		edwRes, _ := p.Run(t, p.EDWAddr, s, in)
		virtRes, _ := p.Run(t, p.NodeAddr, s, in)
		l, v := edwRes.Imports[0], virtRes.Imports[0]
		if l.Inserted != tc.inserted || l.ErrorsET != tc.et || l.ErrorsUV != tc.uv {
			t.Errorf("%s: edw reference outcome %+v, want %d inserted, %d ET, %d UV", tc.table, l, tc.inserted, tc.et, tc.uv)
		}
		if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
			t.Errorf("%s: outcomes differ (seed %d):\n edw:  %+v\n virt: %+v", tc.table, seed, l, v)
		}
		rep := p.Node.Reports()[i]
		if rep.Locates != tc.locates || rep.LocateMisses != tc.locateMisses || rep.ApplyStmts != tc.stmts {
			t.Errorf("%s: %d locates, %d misses, %d statements; want %d, %d, %d", tc.table,
				rep.Locates, rep.LocateMisses, rep.ApplyStmts, tc.locates, tc.locateMisses, tc.stmts)
		}
	}
	rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{
		{Name: "L1", ErrTables: []string{"L1_ET", "L1_UV"}},
		{Name: "L2", ErrTables: []string{"L2_ET", "L2_UV"}},
	}})
	if !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}
