package sqlxlate

import (
	"fmt"
	"strings"

	"etlvirt/internal/ltype"
	"etlvirt/internal/sqlparse"
)

// Finding is one construct in a legacy workload that needs attention before
// or during replatforming — the lightweight equivalent of the qInsight
// upfront workload analysis the paper's case study relies on (§8).
type Finding struct {
	Statement int // 1-based statement index in the analyzed script
	Construct string
	Detail    string
	// Translatable reports whether the cross compiler handles the construct
	// automatically. Non-translatable findings need a manual rewrite.
	Translatable bool
}

// Report summarizes an analyzed workload.
type Report struct {
	Statements   int
	Translatable int // statements that translate fully automatically
	Findings     []Finding
}

// ManualRewrites returns the findings needing manual work.
func (r *Report) ManualRewrites() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Translatable {
			out = append(out, f)
		}
	}
	return out
}

// Analyze inspects a semicolon-separated legacy SQL script and reports the
// constructs the cross compiler will rewrite and those needing manual
// attention.
func Analyze(script string) *Report {
	rep := &Report{}
	stmts, err := sqlparse.ParseAll(script, sqlparse.DialectLegacy)
	if err != nil {
		rep.Findings = append(rep.Findings, Finding{
			Statement: 1, Construct: "unparseable", Detail: err.Error(),
		})
		return rep
	}
	rep.Statements = len(stmts)
	tr := &Translator{StageAlias: "s", Stage: sqlparse.TableName{Name: "stage"}}
	for i, s := range stmts {
		var findings []Finding
		sqlparse.WalkExprs(s, func(e sqlparse.Expr) {
			switch v := e.(type) {
			case *sqlparse.CastExpr:
				if v.Format != "" {
					findings = append(findings, Finding{
						Statement: i + 1, Construct: "format-cast",
						Detail:       fmt.Sprintf("CAST ... AS %s FORMAT '%s'", v.Type.Name, v.Format),
						Translatable: formatCastTranslatable(v.Type.Name),
					})
				}
			case *sqlparse.Placeholder:
				findings = append(findings, Finding{
					Statement: i + 1, Construct: "placeholder",
					Detail: ":" + v.Name, Translatable: true,
				})
			case *sqlparse.FuncCall:
				if detail, known := legacyOnlyFunc(v.Name); known {
					findings = append(findings, Finding{
						Statement: i + 1, Construct: "legacy-function",
						Detail: detail, Translatable: true,
					})
				}
			}
		})
		if ct, ok := s.(*sqlparse.CreateTableStmt); ok {
			for _, c := range ct.Columns {
				if c.Type.CharSet != "" {
					findings = append(findings, Finding{
						Statement: i + 1, Construct: "character-set",
						Detail:       fmt.Sprintf("%s CHARACTER SET %s", c.Name, c.Type.CharSet),
						Translatable: true,
					})
				}
			}
		}
		// The ground truth: does the translator handle the whole statement?
		// Apply-phase upserts go through the DML path rather than TranslateStmt.
		var xerr error
		if up, ok := s.(*sqlparse.UpsertStmt); ok {
			_, xerr = tr.translateUpsertDML(up)
		} else {
			_, xerr = tr.TranslateStmt(s)
		}
		if err := xerr; err != nil {
			findings = append(findings, Finding{
				Statement: i + 1, Construct: "untranslatable",
				Detail: err.Error(),
			})
		} else {
			rep.Translatable++
		}
		rep.Findings = append(rep.Findings, findings...)
	}
	return rep
}

func formatCastTranslatable(typeName string) bool {
	switch typeName {
	case "DATE", "TIMESTAMP", "CHAR", "CHARACTER", "VARCHAR":
		return true
	}
	return false
}

func legacyOnlyFunc(name string) (string, bool) {
	switch name {
	case "ZEROIFNULL", "NULLIFZERO", "INDEX", "CHARACTERS", "OREPLACE":
		return name + "()", true
	}
	return "", false
}

// StagingDDL builds the CREATE TABLE for an import job's staging table: the
// hidden __seq column followed by the layout's fields mapped to CDW types
// (§6: "the staging table is constructed using data types corresponding to
// what was used by the ETL script").
func StagingDDL(stage sqlparse.TableName, layout *ltype.Layout) (string, error) {
	return sqlparse.Print(stagingTable(stage, layout), sqlparse.DialectCDW)
}

// StreamStagingDDL builds a stream's staging table: StagingDDL's columns
// plus the trailing OpColumn that holds each image's class.
func StreamStagingDDL(stage sqlparse.TableName, layout *ltype.Layout) (string, error) {
	ct := stagingTable(stage, layout)
	ct.Columns = append(ct.Columns, sqlparse.ColumnDef{
		Name: OpColumn, Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{1}}, NotNull: true,
	})
	return sqlparse.Print(ct, sqlparse.DialectCDW)
}

func stagingTable(stage sqlparse.TableName, layout *ltype.Layout) *sqlparse.CreateTableStmt {
	ct := &sqlparse.CreateTableStmt{Table: stage}
	ct.Columns = append(ct.Columns, sqlparse.ColumnDef{
		Name: SeqColumn, Type: sqlparse.TypeName{Name: "BIGINT"}, NotNull: true,
	})
	for _, f := range layout.Fields {
		ty := MapLegacyType(f.Type)
		// Staged values arrive as CSV text; binary fields stage as hex text.
		if ty.Name == "VARBINARY" {
			ty = sqlparse.TypeName{Name: "VARCHAR", Args: []int{2 * f.Type.Length}}
		}
		ct.Columns = append(ct.Columns, sqlparse.ColumnDef{Name: f.Name, Type: ty})
	}
	return ct
}

// ErrorTableDDL builds the CREATE TABLE for a job error table. Both the
// transformation-error table (ET) and the uniqueness-violation table (UV)
// use the legacy-compatible shape of Figures 5 and 6: the offending row
// number(s), an error code, the offending field, and a message.
func ErrorTableDDL(name sqlparse.TableName) (string, error) {
	ct := &sqlparse.CreateTableStmt{
		Table: name,
		Columns: []sqlparse.ColumnDef{
			{Name: "SEQNO", Type: sqlparse.TypeName{Name: "BIGINT"}},
			{Name: "SEQNO_END", Type: sqlparse.TypeName{Name: "BIGINT"}},
			{Name: "ERRCODE", Type: sqlparse.TypeName{Name: "INTEGER"}},
			{Name: "ERRFIELD", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{128}}},
			{Name: "ERRMSG", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{1024}}},
		},
	}
	return sqlparse.Print(ct, sqlparse.DialectCDW)
}

// QuoteName renders a table name as SQL text.
func QuoteName(tn sqlparse.TableName) string {
	sel := &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Expr: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: 1}}},
		From: []sqlparse.TableExpr{&sqlparse.TableRef{Table: tn}}}
	s, err := sqlparse.Print(sel, sqlparse.DialectCDW)
	if err != nil {
		return tn.String()
	}
	return strings.TrimPrefix(s, "SELECT 1 FROM ")
}
