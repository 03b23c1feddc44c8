package sqlxlate

import (
	"testing"

	"etlvirt/internal/sqlparse"
)

// TestRangeTemplateMatchesSQL checks, for every kind of range statement the
// virtualizer sends, that its template parsed once and bound to a range
// prints exactly what SQL prints for that range, over several ranges bound
// in turn to the one parse, as a server connection binds them.
func TestRangeTemplateMatchesSQL(t *testing.T) {
	tr := jobTranslator()
	translate := func(legacy string) *DML {
		t.Helper()
		dml, err := tr.TranslateDML(legacy)
		if err != nil {
			t.Fatal(err)
		}
		return dml
	}
	ins := translate(`insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME),
		cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))`)
	upd := translate(`UPDATE PROD.CUSTOMER SET CUST_NAME = trim(:CUST_NAME) WHERE CUST_ID = trim(:CUST_ID)`)
	del := translate(`DELETE FROM PROD.CUSTOMER WHERE CUST_ID = trim(:CUST_ID)`)
	ups := translate(`UPDATE PROD.CUSTOMER SET CUST_NAME = trim(:CUST_NAME) WHERE CUST_ID = trim(:CUST_ID)
		ELSE INSERT INTO PROD.CUSTOMER VALUES (trim(:CUST_ID), trim(:CUST_NAME),
			cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))`)
	key := Key{Cols: []string{"CUST_ID"}, Exprs: []sqlparse.Expr{ins.OrderedExprs[0]}}
	intra, target, err := tr.DupCheckQueries(ins, key.Cols, key.Exprs)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := tr.LocateQuery(ins, []Key{key})
	if err != nil {
		t.Fatal(err)
	}
	check, err := tr.KeyCheckQuery(ins, []Key{key,
		{Cols: []string{"CUST_NAME"}, Exprs: []sqlparse.Expr{ins.OrderedExprs[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	str, delStage := streamTranslator()
	sd, err := str.TranslateStreamDML(streamApplySQL, delStage, customerCols, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	ne, err := str.TranslateNetEffect(streamApplySQL, []TargetColumn{
		{Name: "CUST_ID", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{5}}, NotNull: true},
		{Name: "CUST_NAME", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{50}}},
		{Name: "JOIN_DATE", Type: sqlparse.TypeName{Name: "DATE"}},
	}, []string{"CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		rs   *RangeStmt
	}{
		{"insert", ins.Apply},
		{"update", upd.Apply},
		{"delete", del.Apply},
		{"upsert update half", ups.Apply},
		{"upsert insert half", ups.ApplySecond},
		{"intra-range duplicate check", intra},
		{"target duplicate check", target},
		{"locate probe", probe},
		{"key check", check},
		{"stream delete", sd.Delete},
		{"stream update", sd.Update},
		{"stream insert", sd.Insert},
		{"net-effect read", ne.Read},
		{"net-effect delete", ne.Delete},
		{"net-effect update", ne.Update},
		{"net-effect insert", ne.Insert},
	} {
		if tc.rs == nil {
			t.Errorf("%s: not built", tc.name)
			continue
		}
		tmpl, err := tc.rs.Template()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stmt, slots, err := sqlparse.ParseTemplate(tmpl)
		if err != nil {
			t.Fatalf("%s: template %q does not parse: %v", tc.name, tmpl, err)
		}
		for _, r := range [][2]int64{{1, 400}, {7, 7}, {401, 9000000000}, {5, 4}} {
			want, err := tc.rs.SQL(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			slots[0].Int, slots[1].Int = r[0], r[1]
			got, err := sqlparse.Print(stmt, sqlparse.DialectCDW)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s over %v: bound template prints\n %s\nSQL prints\n %s", tc.name, r, got, want)
			}
		}
		if again, _ := tc.rs.Template(); again != tmpl {
			t.Errorf("%s: template changed after SQL: %q", tc.name, again)
		}
	}
}
