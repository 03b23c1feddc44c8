package sqlxlate

import (
	"fmt"
	"strings"

	"etlvirt/internal/sqlparse"
)

// OpColumn is the image-class column of a stream's staging table (see
// StreamStagingDDL): OpUpsert for an insert or update image, OpDelete for a
// delete image.
const OpColumn = "__op"

// Image classes as staged in OpColumn.
const (
	OpUpsert = "U"
	OpDelete = "D"
)

// StreamDML is the run-ordered MERGE-style statement triple of a stream. It
// now serves only the reference EDW, which applies each delta as a one-row
// range, and the benchmark replay, which times its upsert half over fixed
// ranges; the virtualizer's stream job commits with NetEffect. Upsert and
// delete images are staged under their global delta sequence; the delete
// stage may equal the upsert stage when every staged sequence inside a
// range has one class:
//
//	Delete: DELETE FROM tgt USING delstage d WHERE keys match AND d.__seq range
//	Update: UPDATE tgt SET ... FROM upsstage s WHERE keys match AND s.__seq range
//	Insert: INSERT INTO tgt SELECT ... FROM upsstage s WHERE s.__seq range
//	        AND NOT EXISTS (matching target row)
//
// An upsert range executes Update then the guarded Insert; a delete range
// executes Delete. Each statement is idempotent for a fixed staged range.
// The guarded Insert is only correct when no key repeats inside the range:
// two images of the same not-yet-present key would both pass the guard.
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

// streamInsert parses a stream's INSERT-shaped apply DML and resolves the
// target columns it feeds.
type streamInsert struct {
	ins        *sqlparse.InsertStmt
	targetCols []string
	keyCols    []string
	fedCols    []string // fed target columns, in VALUES order
}

func parseStreamInsert(legacySQL string, targetCols, keyCols []string) (*streamInsert, error) {
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
	si := &streamInsert{ins: ins, targetCols: targetCols, keyCols: keyCols, fedCols: ins.Columns}
	if len(si.fedCols) == 0 && len(ins.Rows) == 1 {
		if len(targetCols) < len(ins.Rows[0]) {
			return nil, fmt.Errorf("sqlxlate: positional stream INSERT feeds %d values but target has %d columns",
				len(ins.Rows[0]), len(targetCols))
		}
		si.fedCols = targetCols[:len(ins.Rows[0])]
	}
	return si, nil
}

// colExpr resolves the expression of d feeding target column col, by name or
// by ordinal.
func (si *streamInsert) colExpr(d *DML, col string) (sqlparse.Expr, bool) {
	if e, ok := d.NamedInsertExpr(col); ok {
		return e, true
	}
	for i, c := range si.targetCols {
		if strings.EqualFold(c, col) {
			return d.PositionalInsertExpr(i)
		}
	}
	return nil, false
}

// keyExprs returns the expressions of d feeding the key columns.
func (si *streamInsert) keyExprs(d *DML) ([]sqlparse.Expr, error) {
	out := make([]sqlparse.Expr, len(si.keyCols))
	for i, kc := range si.keyCols {
		e, ok := si.colExpr(d, kc)
		if !ok {
			return nil, fmt.Errorf("sqlxlate: stream apply DML does not feed key column %s", kc)
		}
		out[i] = e
	}
	return out, nil
}

// keyMatch is tgtAlias.k1 = e1 AND ... over the key columns of d.
func (si *streamInsert) keyMatch(d *DML, tgtAlias string) (sqlparse.Expr, error) {
	exprs, err := si.keyExprs(d)
	if err != nil {
		return nil, err
	}
	var cond sqlparse.Expr
	for i, kc := range si.keyCols {
		cond = conjoin(cond, &sqlparse.BinaryExpr{Op: "=",
			L: &sqlparse.ColRef{Qualifier: tgtAlias, Name: kc},
			R: exprs[i]})
	}
	return cond, nil
}

func (si *streamInsert) isKey(col string) bool {
	for _, kc := range si.keyCols {
		if strings.EqualFold(kc, col) {
			return true
		}
	}
	return false
}

// setList assigns every fed non-key column from its expression in d.
func (si *streamInsert) setList(d *DML) ([]sqlparse.Assignment, error) {
	var set []sqlparse.Assignment
	for _, col := range si.fedCols {
		if si.isKey(col) {
			continue
		}
		e, ok := si.colExpr(d, col)
		if !ok {
			return nil, fmt.Errorf("sqlxlate: stream apply DML does not feed column %s", col)
		}
		set = append(set, sqlparse.Assignment{Column: col, Value: e})
	}
	return set, nil
}

// notExists is NOT EXISTS (SELECT 1 FROM target t WHERE match).
func notExists(target sqlparse.TableName, match sqlparse.Expr) sqlparse.Expr {
	return &sqlparse.ExistsExpr{
		Not: true,
		Sub: &sqlparse.SelectStmt{
			Items: []sqlparse.SelectItem{{Expr: &sqlparse.Literal{Kind: sqlparse.LitInt, Int: 1}}},
			From:  []sqlparse.TableExpr{&sqlparse.TableRef{Table: target, Alias: "t"}},
			Where: match,
		},
	}
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
	si, err := parseStreamInsert(legacySQL, targetCols, keyCols)
	if err != nil {
		return nil, err
	}

	// Upsert half over tr's stage (alias s), delete half over a second
	// translator bound to the delete stage with its own alias so the two
	// ranges and key expressions never share mutable AST nodes.
	trDel := &Translator{Stage: delStage, StageAlias: tr.StageAlias + "d", Layout: tr.Layout, SchemaMap: tr.SchemaMap}
	upsDML, err := tr.translateInsertDML(si.ins)
	if err != nil {
		return nil, err
	}
	delDML, err := trDel.translateInsertDML(si.ins)
	if err != nil {
		return nil, err
	}
	target := upsDML.Target

	out := &StreamDML{
		Target:       target,
		Insert:       upsDML.Apply,
		InsertExprs:  upsDML.InsertExprs,
		OrderedExprs: upsDML.OrderedExprs,
	}

	// Guard the insert: only images with no matching target row insert.
	insMatch, err := si.keyMatch(upsDML, "t")
	if err != nil {
		return nil, err
	}
	insStmt := upsDML.Apply.stmt.(*sqlparse.InsertStmt)
	insStmt.Select.Where = &sqlparse.BinaryExpr{Op: "AND", L: insStmt.Select.Where, R: notExists(target, insMatch)}

	// Update half: set every fed non-key column from the image where keys
	// match. Needs its own key expressions (fresh AST, not shared with the
	// guard) — translate the insert again for them.
	updSrc, err := tr.translateInsertDML(si.ins)
	if err != nil {
		return nil, err
	}
	set, err := si.setList(updSrc)
	if err != nil {
		return nil, err
	}
	if len(set) > 0 {
		updMatch, err := si.keyMatch(updSrc, "t")
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
	delMatch, err := si.keyMatch(delDML, "t")
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

// TargetColumn describes one column of a stream's target table.
type TargetColumn struct {
	Name    string
	Type    sqlparse.TypeName
	NotNull bool
	Default bool // the column has a DEFAULT
}

// NetEffect is the statement set a stream micro-batch commits with. Every
// statement ranges over the stream's one stage (its OpColumn tells the image
// classes apart), so a clean batch applies in at most four statements,
// whatever its size:
//
//	Read:   SELECT s.__seq, s.__op, t.k1 IS NOT NULL, key exprs...,
//	        one CAST(e AS type) IS NULL check per fed column (upserts only)
//	        FROM stage s LEFT JOIN tgt t ON keys match WHERE s.__seq range
//	Delete: DELETE FROM tgt t USING stage s WHERE keys match
//	        AND s.__op = 'D' AND s.__seq range
//	Update: UPDATE tgt t SET ... FROM stage s JOIN last g ON s.__seq = g.m
//	        WHERE keys match AND s.__op = 'U' AND s.__seq range
//	Insert: INSERT INTO tgt SELECT ... FROM stage s JOIN last g ON s.__seq = g.m
//	        WHERE s.__op = 'U' AND s.__seq range AND NOT EXISTS (matching row)
//
// where last is (SELECT MAX(s.__seq) AS m FROM stage s WHERE s.__seq range
// GROUP BY key exprs): each key's last image in the range, of either class.
// Delete removes every key that has a delete image; Update and Insert then
// apply each key's last image when it is an upsert. Tuple-at-a-time
// application leaves each key at exactly that state: its last image if that
// is an upsert, inserted afresh when a delete came before it in the range,
// and absent when the last image is a delete. Read evaluates every
// expression the applies will and says, per image, whether its key was in
// the target before the range; that yields each image's I/U/D count as a
// tuple-at-a-time apply would report it. Every statement is idempotent for a
// fixed staged range.
type NetEffect struct {
	Read   *RangeStmt
	Delete *RangeStmt
	// Update is nil when every fed column is a key column (nothing to set).
	Update *RangeStmt
	Insert *RangeStmt
	// Keys is the number of key values in a Read row, after __seq, __op and
	// the presence flag; the Checks follow them.
	Keys int
	// Checks describes the null checks of a Read row, one per fed column.
	Checks []FedCheck
	// InsertNull is set when a NOT NULL target column without a default is
	// not fed, so that every insert fails.
	InsertNull bool
}

// FedCheck is one fed column's null check in a NetEffect Read row.
type FedCheck struct {
	Key     bool // a key column: only an insert writes it
	NotNull bool // the target column is NOT NULL
}

// TranslateNetEffect derives the net-effect statements from the
// INSERT-shaped apply DML of a stream whose staging table (tr.Stage) carries
// OpColumn. cols is the target's column list in ordinal order and keyCols
// its primary key.
func (tr *Translator) TranslateNetEffect(legacySQL string, cols []TargetColumn, keyCols []string) (*NetEffect, error) {
	if tr.StageAlias == "" || tr.Stage.Name == "" {
		return nil, fmt.Errorf("sqlxlate: TranslateNetEffect requires a staging context")
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	si, err := parseStreamInsert(legacySQL, names, keyCols)
	if err != nil {
		return nil, err
	}
	d, err := tr.translateInsertDML(si.ins)
	if err != nil {
		return nil, err
	}
	target := d.Target
	keys, err := si.keyExprs(d)
	if err != nil {
		return nil, err
	}
	match, err := si.keyMatch(d, "t")
	if err != nil {
		return nil, err
	}
	set, err := si.setList(d)
	if err != nil {
		return nil, err
	}

	stageCol := func(name string) *sqlparse.ColRef {
		return &sqlparse.ColRef{Qualifier: tr.StageAlias, Name: name}
	}
	isOp := func(op string) sqlparse.Expr {
		return &sqlparse.BinaryExpr{Op: "=", L: stageCol(OpColumn), R: &sqlparse.Literal{Kind: sqlparse.LitString, Str: op}}
	}
	// ranged builds one statement over a fresh pair of range bounds, shared
	// by every stage scan of that statement.
	ranged := func(build func(inRange sqlparse.Expr) sqlparse.Stmt) *RangeStmt {
		pred, lo, hi := tr.rangePredicate()
		return &RangeStmt{stmt: build(pred), lo: lo, hi: hi}
	}
	lastImage := func(inRange sqlparse.Expr) sqlparse.TableExpr {
		last := &sqlparse.SelectStmt{
			Items:   []sqlparse.SelectItem{{Expr: &sqlparse.FuncCall{Name: "MAX", Args: []sqlparse.Expr{stageCol(SeqColumn)}}, Alias: "m"}},
			From:    []sqlparse.TableExpr{tr.stageRef()},
			Where:   inRange,
			GroupBy: keys,
		}
		return &sqlparse.Join{Type: sqlparse.JoinInner, Left: tr.stageRef(),
			Right: &sqlparse.SubqueryTable{Select: last, Alias: "g"},
			On:    &sqlparse.BinaryExpr{Op: "=", L: stageCol(SeqColumn), R: &sqlparse.ColRef{Qualifier: "g", Name: "m"}}}
	}

	out := &NetEffect{Keys: len(keys)}
	byName := make(map[string]TargetColumn, len(cols))
	for _, c := range cols {
		byName[strings.ToLower(c.Name)] = c
	}
	items := []sqlparse.SelectItem{
		{Expr: stageCol(SeqColumn)},
		{Expr: stageCol(OpColumn)},
		{Expr: &sqlparse.IsNullExpr{X: &sqlparse.ColRef{Qualifier: "t", Name: keyCols[0]}, Not: true}},
	}
	for _, k := range keys {
		items = append(items, sqlparse.SelectItem{Expr: k})
	}
	for _, col := range si.fedCols {
		c, ok := byName[strings.ToLower(col)]
		e, fed := si.colExpr(d, col)
		if !ok || !fed {
			return nil, fmt.Errorf("sqlxlate: stream apply DML feeds unknown column %s", col)
		}
		out.Checks = append(out.Checks, FedCheck{Key: si.isKey(col), NotNull: c.NotNull})
		items = append(items, sqlparse.SelectItem{Expr: &sqlparse.CaseExpr{Whens: []sqlparse.WhenClause{{
			Cond: isOp(OpUpsert),
			Then: &sqlparse.IsNullExpr{X: &sqlparse.CastExpr{X: e, Type: c.Type}},
		}}}})
		delete(byName, strings.ToLower(col))
	}
	for _, c := range byName {
		out.InsertNull = out.InsertNull || (c.NotNull && !c.Default)
	}

	out.Read = ranged(func(inRange sqlparse.Expr) sqlparse.Stmt {
		return &sqlparse.SelectStmt{
			Items: items,
			From: []sqlparse.TableExpr{&sqlparse.Join{Type: sqlparse.JoinLeft, Left: tr.stageRef(),
				Right: &sqlparse.TableRef{Table: target, Alias: "t"}, On: match}},
			Where: inRange,
		}
	})
	out.Delete = ranged(func(inRange sqlparse.Expr) sqlparse.Stmt {
		return &sqlparse.DeleteStmt{Table: target, Alias: "t",
			Using: []sqlparse.TableExpr{tr.stageRef()},
			Where: conjoin(conjoin(match, isOp(OpDelete)), inRange)}
	})
	if len(set) > 0 {
		out.Update = ranged(func(inRange sqlparse.Expr) sqlparse.Stmt {
			return &sqlparse.UpdateStmt{Table: target, Alias: "t", Set: set,
				From:  []sqlparse.TableExpr{lastImage(inRange)},
				Where: conjoin(conjoin(match, isOp(OpUpsert)), inRange)}
		})
	}
	out.Insert = ranged(func(inRange sqlparse.Expr) sqlparse.Stmt {
		return &sqlparse.InsertStmt{Table: target, Columns: append([]string(nil), si.ins.Columns...),
			Select: &sqlparse.SelectStmt{
				Items: d.Apply.stmt.(*sqlparse.InsertStmt).Select.Items,
				From:  []sqlparse.TableExpr{lastImage(inRange)},
				Where: conjoin(conjoin(inRange, isOp(OpUpsert)), notExists(target, match)),
			}}
	})
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
