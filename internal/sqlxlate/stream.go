package sqlxlate

import (
	"fmt"
	"strings"

	"etlvirt/internal/sqlparse"
)

// StreamDML is the MERGE-style statement triple a streaming micro-batch
// applies. Upsert and delete images are staged under their global delta
// sequence, and the batch applies as maximal runs of consecutive same-class
// deltas in sequence order. The delete stage may equal the upsert stage: the
// stream job stages both classes in one table, since every staged sequence
// inside a run has the run's class, while the reference EDW and the
// benchmark replay still pass two:
//
//	Delete: DELETE FROM tgt USING delstage d WHERE keys match AND d.__seq range
//	Update: UPDATE tgt SET ... FROM upsstage s WHERE keys match AND s.__seq range
//	Insert: INSERT INTO tgt SELECT ... FROM upsstage s WHERE s.__seq range
//	        AND NOT EXISTS (matching target row)
//
// An upsert run executes Update then the guarded Insert over its range; a
// delete run executes Delete. Run ordering (not server-side key collapse,
// which is impossible here — keys are arbitrary SQL expressions over the
// image) reproduces tuple-at-a-time semantics: the CDW's UPDATE ... FROM
// applies matching images in staged order so the last image of a key wins
// within a run, and run boundaries order deletes against upserts of the same
// key. Each statement is idempotent for a fixed staged range, which both the
// adaptive error handler (sub-range re-application) and checkpoint-resume
// replay (a crash between apply and watermark update re-runs the whole
// batch) rely on. The one hazard — two images of the same not-yet-present
// key inside one range would both pass the Insert guard — is excluded by the
// stream job's intra-range duplicate probe, which forces a split until
// ranges are duplicate-free.
type StreamDML struct {
	Target sqlparse.TableName
	// Delete ranges over the delete-stage __seq. Nil when the batch cannot
	// carry deletes (no usable key columns).
	Delete *RangeStmt
	// Update and Insert both range over the upsert-stage __seq. Update is
	// nil when every inserted column is a key column (nothing to set).
	Update *RangeStmt
	Insert *RangeStmt
	// InsertExprs/OrderedExprs mirror DML for error-probe reuse.
	InsertExprs  map[string]sqlparse.Expr
	OrderedExprs []sqlparse.Expr
}

// TranslateStreamDML derives the streaming statement triple from the
// INSERT-shaped apply DML of a stream. tr's staging context names the
// upsert-image stage; delStage is the delete-image stage (same layout).
// targetCols is the target's column list in ordinal order and keyCols the
// subset forming its primary key — both from table metadata.
func (tr *Translator) TranslateStreamDML(legacySQL string, delStage sqlparse.TableName, targetCols, keyCols []string) (*StreamDML, error) {
	if tr.StageAlias == "" || tr.Stage.Name == "" {
		return nil, fmt.Errorf("sqlxlate: TranslateStreamDML requires a staging context")
	}
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("sqlxlate: streaming requires a primary key on the target table")
	}
	stmt, err := sqlparse.Parse(legacySQL, sqlparse.DialectLegacy)
	if err != nil {
		return nil, err
	}
	ins, ok := stmt.(*sqlparse.InsertStmt)
	if !ok {
		return nil, fmt.Errorf("sqlxlate: stream apply DML must be an INSERT, got %T", stmt)
	}

	// Upsert half over tr's stage (alias s), delete half over a second
	// translator bound to the delete stage with its own alias so the two
	// ranges and key expressions never share mutable AST nodes.
	trDel := &Translator{Stage: delStage, StageAlias: tr.StageAlias + "d", Layout: tr.Layout, SchemaMap: tr.SchemaMap}
	upsDML, err := tr.translateInsertDML(ins)
	if err != nil {
		return nil, err
	}
	delDML, err := trDel.translateInsertDML(ins)
	if err != nil {
		return nil, err
	}
	target := upsDML.Target

	// Resolve the expressions feeding each target column, by name or by
	// ordinal, for both stage aliases.
	colExpr := func(d *DML, col string) (sqlparse.Expr, bool) {
		if e, ok := d.NamedInsertExpr(col); ok {
			return e, true
		}
		for i, c := range targetCols {
			if strings.EqualFold(c, col) {
				return d.PositionalInsertExpr(i)
			}
		}
		return nil, false
	}
	keyMatch := func(d *DML, tgtAlias string) (sqlparse.Expr, error) {
		var cond sqlparse.Expr
		for _, kc := range keyCols {
			e, ok := colExpr(d, kc)
			if !ok {
				return nil, fmt.Errorf("sqlxlate: stream apply DML does not feed key column %s", kc)
			}
			eq := &sqlparse.BinaryExpr{Op: "=",
				L: &sqlparse.ColRef{Qualifier: tgtAlias, Name: kc},
				R: e}
			if cond == nil {
				cond = eq
			} else {
				cond = &sqlparse.BinaryExpr{Op: "AND", L: cond, R: eq}
			}
		}
		return cond, nil
	}
	isKey := func(col string) bool {
		for _, kc := range keyCols {
			if strings.EqualFold(kc, col) {
				return true
			}
		}
		return false
	}
	// Columns fed by the insert, in target order.
	fedCols := ins.Columns
	if len(fedCols) == 0 {
		if len(targetCols) < len(upsDML.OrderedExprs) {
			return nil, fmt.Errorf("sqlxlate: positional stream INSERT feeds %d values but target has %d columns",
				len(upsDML.OrderedExprs), len(targetCols))
		}
		fedCols = targetCols[:len(upsDML.OrderedExprs)]
	}

	out := &StreamDML{
		Target:       target,
		Insert:       upsDML.Apply,
		InsertExprs:  upsDML.InsertExprs,
		OrderedExprs: upsDML.OrderedExprs,
	}

	// Guard the insert: only images with no matching target row insert.
	insMatch, err := keyMatch(upsDML, "t")
	if err != nil {
		return nil, err
	}
	guard := &sqlparse.ExistsExpr{
		Not: true,
		Sub: &sqlparse.SelectStmt{
			Items: []sqlparse.SelectItem{{Expr: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: 1}}},
			From:  []sqlparse.TableExpr{&sqlparse.TableRef{Table: target, Alias: "t"}},
			Where: insMatch,
		},
	}
	insStmt := upsDML.Apply.stmt.(*sqlparse.InsertStmt)
	insStmt.Select.Where = &sqlparse.BinaryExpr{Op: "AND", L: insStmt.Select.Where, R: guard}

	// Update half: set every fed non-key column from the image where keys
	// match. Needs its own key expressions (fresh AST, not shared with the
	// guard) — translate the insert again for them.
	updSrc, err := tr.translateInsertDML(ins)
	if err != nil {
		return nil, err
	}
	var set []sqlparse.Assignment
	for _, col := range fedCols {
		if isKey(col) {
			continue
		}
		e, ok := colExpr(updSrc, col)
		if !ok {
			return nil, fmt.Errorf("sqlxlate: stream apply DML does not feed column %s", col)
		}
		set = append(set, sqlparse.Assignment{Column: col, Value: e})
	}
	if len(set) > 0 {
		updMatch, err := keyMatch(updSrc, "t")
		if err != nil {
			return nil, err
		}
		pred, lo, hi := tr.rangePredicate()
		upd := &sqlparse.UpdateStmt{
			Table: target,
			Alias: "t",
			Set:   set,
			From:  []sqlparse.TableExpr{tr.stageRef()},
			Where: &sqlparse.BinaryExpr{Op: "AND", L: updMatch, R: pred},
		}
		out.Update = &RangeStmt{stmt: upd, lo: lo, hi: hi}
	}

	// Delete half: remove target rows whose keys match a delete image.
	delMatch, err := keyMatch(delDML, "t")
	if err != nil {
		return nil, err
	}
	pred, lo, hi := trDel.rangePredicate()
	del := &sqlparse.DeleteStmt{
		Table: target,
		Alias: "t",
		Using: []sqlparse.TableExpr{trDel.stageRef()},
		Where: &sqlparse.BinaryExpr{Op: "AND", L: delMatch, R: pred},
	}
	out.Delete = &RangeStmt{stmt: del, lo: lo, hi: hi}
	return out, nil
}

// CheckpointTableDDL builds the CREATE TABLE IF NOT EXISTS for the durable
// stream-watermark table. One row per stream name; WATERMARK is the highest
// delta sequence whose micro-batch has been fully applied to the CDW.
func CheckpointTableDDL(table sqlparse.TableName) (string, error) {
	ct := &sqlparse.CreateTableStmt{
		Table:       table,
		IfNotExists: true,
		Columns: []sqlparse.ColumnDef{
			{Name: "STREAM_NAME", Type: sqlparse.TypeName{Name: "VARCHAR", Args: []int{256}}, NotNull: true},
			{Name: "WATERMARK", Type: sqlparse.TypeName{Name: "BIGINT"}, NotNull: true},
		},
		PrimaryKey: []string{"STREAM_NAME"},
	}
	return sqlparse.Print(ct, sqlparse.DialectCDW)
}
