package etlvirt_test

import (
	"fmt"
	"strings"
	"testing"

	"etlvirt/internal/scrub"
	"etlvirt/internal/testhost"
)

// TestChaosUniqueDifferential pins uniqueness emulation for UNIQUE constraints
// beside the primary key. The legacy EDW rejects a row into the UV table
// when it collides on the primary key or on any UNIQUE constraint, with the
// target or with an earlier row of the load; NULLs never collide. The
// virtualized import must insert the same rows and record the same UV
// errors, and the differential scrub must come back clean.
//
// PROD.U1 is the minimal case: a preloaded ('9','z'), then rows whose E
// repeats an earlier row (3|a) or the target (5|z), and a NULL pair in E.
// PROD.U2 mixes a single-column and a two-column UNIQUE constraint with
// primary-key repeats, NULLs in every constraint column and conversion
// errors over enough rows to span several staged files. PROD.U3 is loaded
// through a column list that leaves out B and C: every row's B is NULL, so
// UNIQUE (A, B) never collides, while C takes its DEFAULT, so UNIQUE (A, C)
// collides on a repeated A, and on a target row only where that row's C is
// the default too.
//
// The virtualized side runs with fault injection on; the seed comes from
// ETLVIRT_FAULT_SEED (the CI chaos matrix).
func TestChaosUniqueDifferential(t *testing.T) {
	seed := testhost.FaultSeed(t, 1)
	ddl := []string{
		`CREATE TABLE PROD.U1 (K VARCHAR(5) NOT NULL, E VARCHAR(10), PRIMARY KEY (K), UNIQUE (E))`,
		`INSERT INTO PROD.U1 VALUES ('9', 'z')`,
		`CREATE TABLE PROD.U2 (
	K VARCHAR(5) NOT NULL,
	E VARCHAR(10),
	A INT,
	B VARCHAR(5),
	D DATE,
	PRIMARY KEY (K), UNIQUE (E), UNIQUE (A, B))`,
		`INSERT INTO PROD.U2 VALUES ('900', 'e7', 1, 'b1', DATE '2020-01-01')`,
		`CREATE TABLE PROD.U3 (
	K VARCHAR(5) NOT NULL,
	A INT,
	B VARCHAR(5),
	C VARCHAR(5) DEFAULT 'c0',
	PRIMARY KEY (K), UNIQUE (A, B), UNIQUE (A, C))`,
		`INSERT INTO PROD.U3 VALUES ('90', 20, 'b', 'c1'), ('91', 30, 'b', 'c0')`,
	}
	const script = `
.logon host/user,pass;
.layout L1;
.field K varchar(5);
.field E varchar(10);
.begin import tables PROD.U1
	errortables PROD.U1_ET PROD.U1_UV;
.dml label Ins1;
insert into PROD.U1 values ( :K, :E );
.import infile u1.txt
	format vartext '|' layout L1
	apply Ins1;
.end load;
.layout L2;
.field K varchar(5);
.field E varchar(10);
.field A varchar(6);
.field B varchar(5);
.field D varchar(10);
.begin import tables PROD.U2
	errortables PROD.U2_ET PROD.U2_UV;
.dml label Ins2;
insert into PROD.U2 values (
	:K, :E, cast(:A as INT), :B,
	cast(:D as DATE format 'YYYY-MM-DD') );
.import infile u2.txt
	format vartext '|' layout L2
	apply Ins2;
.end load;
.layout L3;
.field K varchar(5);
.field A varchar(6);
.begin import tables PROD.U3
	errortables PROD.U3_ET PROD.U3_UV;
.dml label Ins3;
insert into PROD.U3 (K, A) values ( :K, cast(:A as INT) );
.import infile u3.txt
	format vartext '|' layout L3
	apply Ins3;
.end load;
`
	u1 := "1|a\n2|b\n3|a\n4|c\n5|z\n6|\n7|\n"

	var u2 strings.Builder
	for i := 1; i <= 240; i++ {
		k, e, a := fmt.Sprintf("%d", i), fmt.Sprintf("e%d", i), i
		d := fmt.Sprintf("2021-%02d-%02d", 1+i%12, 1+i%28)
		switch {
		case i%37 == 0:
			k = fmt.Sprintf("%d", i-20) // primary-key repeat
		case i%9 == 0:
			e = "" // NULLs never collide
		case i%31 == 0:
			e = fmt.Sprintf("e%d", i-30) // UNIQUE (E) repeat
		}
		if i%29 == 0 {
			a = i - 11 // UNIQUE (A, B) repeat, unless either row's B is NULL
		}
		b := fmt.Sprintf("b%d", a%5)
		if i%7 == 0 {
			b = ""
		}
		if i%43 == 0 {
			d = "not-a-date"
		}
		fmt.Fprintf(&u2, "%s|%s|%d|%s|%s\n", k, e, a, b, d)
	}
	// 2, 6 and 7 repeat an earlier A; 3 shares A with a target row whose C is
	// not the default, 4 with one whose C is.
	u3 := "1|10\n2|10\n3|20\n4|30\n5|40\n6|40\n7|40\n8|50\n"
	files := map[string][]byte{"u1.txt": []byte(u1), "u2.txt": []byte(u2.String()), "u3.txt": []byte(u3)}

	p := testhost.StartPair(t, testhost.Options{Seed: seed, DDL: ddl})
	edwRes, _ := p.Run(t, p.EDWAddr, script, files)
	virtRes, _ := p.Run(t, p.NodeAddr, script, files)

	if got := edwRes.Imports[0]; got.Inserted != 5 || got.ErrorsUV != 2 {
		t.Fatalf("reference premise: PROD.U1 on the EDW inserted %d and recorded %d UV, want 5 and 2",
			got.Inserted, got.ErrorsUV)
	}
	if got := edwRes.Imports[2]; got.Inserted != 4 || got.ErrorsUV != 4 {
		t.Fatalf("reference premise: PROD.U3 on the EDW inserted %d and recorded %d UV, want 4 and 4",
			got.Inserted, got.ErrorsUV)
	}
	for i, l := range edwRes.Imports {
		v := virtRes.Imports[i]
		if l.Inserted != v.Inserted || l.ErrorsET != v.ErrorsET || l.ErrorsUV != v.ErrorsUV {
			t.Errorf("import %d outcome differs (seed %d):\n edw:  %+v\n virt: %+v", i, seed, l, v)
		}
	}
	// The NULL pair must not cost a split of its own: a key with a NULL never
	// collides, so the one located split (rows 3 and 5) is the only split.
	for _, r := range p.Node.Reports() {
		if r.Target == "PROD.U1" && r.Splits != 1 {
			t.Errorf("PROD.U1 apply split %d times, want only the located split: %+v", r.Splits, r)
		}
	}
	rep := p.Scrub(t, scrub.Options{Tables: []scrub.Table{
		{Name: "PROD.U1", ErrTables: []string{"PROD.U1_ET", "PROD.U1_UV"}},
		{Name: "PROD.U2", ErrTables: []string{"PROD.U2_ET", "PROD.U2_UV"}},
		{Name: "PROD.U3", ErrTables: []string{"PROD.U3_ET", "PROD.U3_UV"}},
	}})
	if !rep.OK {
		t.Errorf("scrub diverged under seed %d:\n%s", seed, rep.Diff())
	}
}
