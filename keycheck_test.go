package etlvirt_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"etlvirt/internal/scrub"
	"etlvirt/internal/testhost"
)

// keyCheckImport generates one keyed insert import of 30 to 60 rows for
// TestLocatedKeyChecksDifferential. The target, created by the test, has
// PRIMARY KEY (K), UNIQUE (A, B) and UNIQUE (E, C), where the insert leaves
// C to its DEFAULT 'c0', and already holds rows p1 ('pe1', C = 'c0') and p2
// ('pe2', C = 'c9'). Rows draw from these shapes:
//
//   - a K, an (A, B) or an E that repeats an earlier row of the import, which
//     may itself fail on its date, collide, or sit inside a gap;
//   - a K, an (A, B) or an E of a preloaded row: a collision with the target,
//     except E = 'pe2', whose target row's C is not the default;
//   - NULL in A, B or E, which never collides, and a NULL K, which fails
//     the NOT NULL column and so makes its gap fail and bisect;
//   - an unparseable date.
//
// Most rows are clean, so the located split has several gaps.
func keyCheckImport(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	n := 30 + r.Intn(31)
	type row struct{ k, a, b, e, d string }
	rows := make([]row, 0, n)
	for i := 1; i <= n; i++ {
		w := row{k: fmt.Sprint(i), a: fmt.Sprint(i), b: fmt.Sprintf("b%d", r.Intn(3)),
			e: fmt.Sprintf("e%d", i), d: fmt.Sprintf("2021-%02d-%02d", 1+r.Intn(12), 1+r.Intn(28))}
		earlier := func() row { return rows[r.Intn(len(rows))] }
		switch x := r.Intn(100); {
		case x < 8 && len(rows) > 0:
			w.k = earlier().k
		case x < 12:
			w.k = fmt.Sprintf("p%d", 1+r.Intn(2))
		case x < 14:
			w.k = ""
		}
		switch x := r.Intn(100); {
		case x < 8 && len(rows) > 0:
			e := earlier()
			w.a = e.a
			if r.Intn(2) == 0 {
				w.b = e.b
			}
		case x < 12:
			w.a, w.b = "1000", "b1" // p1's (A, B)
		case x < 20:
			w.a = ""
		case x < 28:
			w.b = ""
		}
		switch x := r.Intn(100); {
		case x < 8 && len(rows) > 0:
			w.e = earlier().e
		case x < 12:
			w.e = fmt.Sprintf("pe%d", 1+r.Intn(2))
		case x < 18:
			w.e = ""
		}
		if r.Intn(100) < 10 {
			w.d = []string{"2021-13-01", "9999-99-99", "xx"}[r.Intn(3)]
		}
		rows = append(rows, w)
	}
	var b strings.Builder
	for _, w := range rows {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s\n", w.k, w.a, w.b, w.e, w.d)
	}
	return b.String()
}

// TestLocatedKeyChecksDifferential: a located split settles the duplicate-key
// checks of every row its probe did not name for a key, and checks only the
// rows it did. For a fixed set of generated imports (keyCheckImport) the
// virtualized side, under the chaos seed, must insert the same rows and
// record the same ET and UV rows as the legacy EDW, and scrub clean. Each
// import fails its first statement, so each asks the probe once.
func TestLocatedKeyChecksDifferential(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field A varchar(6);
.field B varchar(5);
.field E varchar(6);
.field D varchar(10);
.begin import tables %[1]s errortables %[1]s_ET %[1]s_UV;
.dml label Ins;
insert into %[1]s (K, A, B, E, D) values (
	trim(:K), cast(:A as INT), :B, :E, cast(:D as DATE format 'YYYY-MM-DD'));
.import infile %[1]s.txt format vartext '|' layout L apply Ins;
.end load;
`
	gens := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	var ddl []string
	var tables []scrub.Table
	for _, g := range gens {
		name := fmt.Sprintf("KC%d", g)
		ddl = append(ddl,
			"CREATE TABLE "+name+` (K VARCHAR(5) NOT NULL, A INT, B VARCHAR(5), E VARCHAR(6),
	C VARCHAR(5) DEFAULT 'c0', D DATE, PRIMARY KEY (K), UNIQUE (A, B), UNIQUE (E, C))`,
			"INSERT INTO "+name+` VALUES ('p1', 1000, 'b1', 'pe1', 'c0', DATE '2020-01-01'),
	('p2', 1001, 'b2', 'pe2', 'c9', DATE '2020-01-02')`)
		tables = append(tables, scrub.Table{Name: name, ErrTables: []string{name + "_ET", name + "_UV"}})
	}
	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: ddl})

	for i, g := range gens {
		name := tables[i].Name
		s := fmt.Sprintf(script, name)
		in := map[string][]byte{name + ".txt": []byte(keyCheckImport(g))}
		edwRes, _ := p.Run(t, p.EDWAddr, s, in)
		virtRes, _ := p.Run(t, p.NodeAddr, s, in)
		l, v := edwRes.Imports[0], virtRes.Imports[0]
		if l.ErrorsUV == 0 || l.ErrorsET == 0 {
			t.Errorf("%s: premise: the EDW recorded %d ET and %d UV rows, want some of each", name, l.ErrorsET, l.ErrorsUV)
		}
		if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
			t.Errorf("%s: outcomes differ (seed %d):\n edw:  %+v\n virt: %+v", name, seed, l, v)
		}
		if rep := p.Node.Reports()[i]; rep.Locates != 1 {
			t.Errorf("%s: %d locates, want 1", name, rep.Locates)
		}
	}
	if rep := p.Scrub(t, scrub.Options{Tables: tables}); !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}

// TestLocatedKeyPrecedenceDifferential: a row whose key collides and whose
// value also fails its column's cast, or leaves a NOT NULL column NULL, is
// an ET row, as on the legacy EDW, which casts the row's values and tests
// NOT NULL before it checks keys. Row 2 repeats row 1's key with a
// non-numeric N, row 3 with a NULL Q, and row 4 only repeats it. Error
// codes and fields must match the EDW's.
func TestLocatedKeyPrecedenceDifferential(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	const script = `
.logon host/user,pass;
.layout L;
.field K varchar(5);
.field N varchar(5);
.field Q varchar(5);
.begin import tables PREC errortables PREC_ET PREC_UV;
.dml label Ins;
insert into PREC values (:K, :N, :Q);
.import infile prec.txt format vartext '|' layout L apply Ins;
.end load;
`
	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: []string{
		"CREATE TABLE PREC (K VARCHAR(5) NOT NULL, N INTEGER, Q VARCHAR(5) NOT NULL, PRIMARY KEY (K))",
	}})
	in := map[string][]byte{"prec.txt": []byte("1|1|a\n1|x|b\n1|2|\n1|3|c\n5|5|e\n")}
	edwRes, _ := p.Run(t, p.EDWAddr, script, in)
	virtRes, _ := p.Run(t, p.NodeAddr, script, in)
	l, v := edwRes.Imports[0], virtRes.Imports[0]
	if l.Inserted != 2 || l.ErrorsET != 2 || l.ErrorsUV != 1 {
		t.Errorf("edw reference outcome %+v, want 2 inserted, 2 ET, 1 UV", l)
	}
	if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
		t.Errorf("outcomes differ (seed %d):\n edw:  %+v\n virt: %+v", seed, l, v)
	}
	const q = "SELECT SEQNO, ERRCODE, ERRFIELD FROM PREC_ET"
	if want, got := testhost.State(t, p.EDW.Engine(), q), testhost.State(t, p.CDWEng, q); strings.Join(want, ";") != strings.Join(got, ";") {
		t.Errorf("ET rows differ:\n edw:  %v\n virt: %v", want, got)
	}
	if rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{{Name: "PREC", ErrTables: []string{"PREC_ET", "PREC_UV"}}}}); !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}

// TestLocatedKeyErrorPrecedenceDifferential: a row whose key fails to
// evaluate, so that its key check raises an engine error, is an ET row with
// the legacy engine's first failure on it, not the key's error. On KE, row
// 2's date comes before its non-numeric key in VALUES order, so the EDW
// records the invalid date. The range's key check raises, the probe fails
// on the same key and the range is bisected down to row 2, whose check
// raises again. KEP's one-row import checks its only row at once, against
// a target whose row makes the collision join evaluate the key. SEQNO and
// ERRCODE must match the EDW's; ERRFIELD is not compared, since the two
// sides name fields differently by design.
func TestLocatedKeyErrorPrecedenceDifferential(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	const script = `
.logon host/user,pass;
.layout L;
.field D varchar(10);
.field K varchar(5);
.begin import tables %[1]s errortables %[1]s_ET %[1]s_UV;
.dml label Ins;
insert into %[1]s values (cast(:D as DATE format 'YYYY-MM-DD'), cast(:K as INTEGER));
.import infile %[1]s.txt format vartext '|' layout L apply Ins;
.end load;
`
	ddl := func(table string) string {
		return "CREATE TABLE " + table + " (D DATE, K INTEGER NOT NULL, PRIMARY KEY (K))"
	}
	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: []string{
		ddl("KE"), ddl("KEP"), "INSERT INTO KEP VALUES (DATE '2020-01-01', 7)",
	}})
	var tables []scrub.Table
	for _, tc := range []struct {
		table, input string
		inserted     int64
	}{
		{"KE", "2020-01-02|1\n2020-13-45|abc\n2020-01-03|2\n", 2},
		{"KEP", "2020-13-45|abc\n", 0},
	} {
		s := fmt.Sprintf(script, tc.table)
		in := map[string][]byte{tc.table + ".txt": []byte(tc.input)}
		edwRes, _ := p.Run(t, p.EDWAddr, s, in)
		virtRes, _ := p.Run(t, p.NodeAddr, s, in)
		l, v := edwRes.Imports[0], virtRes.Imports[0]
		if l.Inserted != tc.inserted || l.ErrorsET != 1 || l.ErrorsUV != 0 {
			t.Errorf("%s: edw reference outcome %+v, want %d inserted, 1 ET", tc.table, l, tc.inserted)
		}
		if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
			t.Errorf("%s: outcomes differ (seed %d):\n edw:  %+v\n virt: %+v", tc.table, seed, l, v)
		}
		q := "SELECT SEQNO, ERRCODE FROM " + tc.table + "_ET"
		if want, got := testhost.State(t, p.EDW.Engine(), q), testhost.State(t, p.CDWEng, q); strings.Join(want, ";") != strings.Join(got, ";") {
			t.Errorf("%s: ET rows differ:\n edw:  %v\n virt: %v", tc.table, want, got)
		}
		tables = append(tables, scrub.Table{Name: tc.table, ErrTables: []string{tc.table + "_ET", tc.table + "_UV"}})
	}
	if rep := p.Scrub(t, scrub.Options{Tables: tables}); !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}
