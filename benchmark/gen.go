package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"etlvirt/internal/ltype"
	scenario "etlvirt/internal/workload"
)

// bulkInput is one generated legacy import job: the script the unmodified
// client runs, its input file, the target DDL, and the generator's own exact
// expectation of the outcome. The program under test only ever sees Script,
// Data and DDL.
type bulkInput struct {
	Table  string
	DDL    string
	Script string
	Data   []byte
	Layout *ltype.Layout
	DML    string // the script's apply statement, for the layer replay

	Rows     int64
	Inserted int64 // rows the target must hold afterwards
	ErrorsET int64 // bad-date rows, one ET row each
	ErrorsUV int64 // duplicate-key rows, one UV row each
}

const (
	bulkFillerCols  = 4
	bulkFillerWidth = 56 // 12+10+4*56 plus delimiters ≈ 250 B/row
	bulkInfile      = "bulk.dat"
)

// bulkLayout is the legacy layout every bulk workload shares: a key, a date
// shipped as text (so a bad date is an apply-time ET error, not a conversion
// reject), and filler columns that give the row its width.
func bulkLayout() *ltype.Layout {
	l := &ltype.Layout{Name: "BulkLayout", Fields: []ltype.Field{
		{Name: "K", Type: ltype.VarChar(12)},
		{Name: "D", Type: ltype.VarChar(10)},
	}}
	for i := 1; i <= bulkFillerCols; i++ {
		l.Fields = append(l.Fields, ltype.Field{Name: "F" + strconv.Itoa(i), Type: ltype.VarChar(bulkFillerWidth + 8)})
	}
	return l
}

func bulkDDL(table string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (K VARCHAR(12) NOT NULL, D DATE", table)
	for i := 1; i <= bulkFillerCols; i++ {
		fmt.Fprintf(&sb, ", F%d VARCHAR(%d)", i, bulkFillerWidth+8)
	}
	sb.WriteString(", PRIMARY KEY (K))")
	return sb.String()
}

func bulkDML(table string) string {
	var sb strings.Builder
	sb.WriteString("insert into " + table + " values (trim(:K), cast(:D as DATE format 'YYYY-MM-DD')")
	for i := 1; i <= bulkFillerCols; i++ {
		fmt.Fprintf(&sb, ", :F%d", i)
	}
	sb.WriteString(")")
	return sb.String()
}

func bulkScript(table string, layout *ltype.Layout, maxErrors int) string {
	var sb strings.Builder
	sb.WriteString(".logon host/bench,bench;\n.layout " + layout.Name + ";\n")
	for _, f := range layout.Fields {
		fmt.Fprintf(&sb, ".field %s %s;\n", f.Name, f.Type)
	}
	fmt.Fprintf(&sb, ".begin import tables %s errortables %s_ET %s_UV", table, table, table)
	if maxErrors > 0 {
		fmt.Fprintf(&sb, " maxerrors %d", maxErrors)
	}
	sb.WriteString(";\n.dml label Ins;\n" + bulkDML(table) + ";\n")
	fmt.Fprintf(&sb, ".import infile %s format vartext '|' layout %s apply Ins;\n.end load;\n", bulkInfile, layout.Name)
	return sb.String()
}

// genBulk builds one import of rows rows into table. Exactly badDates rows
// carry an unparseable date and exactly dupKeys rows repeat the key of an
// earlier clean row; which rows those are is drawn from rng, so the counts —
// and with them the amount of adaptive splitting — do not vary with the seed
// while the positions do.
func genBulk(rng *rand.Rand, table string, rows, badDates, dupKeys int) *bulkInput {
	const (
		clean = iota
		bad
		dup
	)
	kind := make([]uint8, rows)
	// Row 0 stays clean so every duplicate has an earlier key to repeat.
	for _, i := range rng.Perm(rows - 1)[:badDates+dupKeys] {
		kind[i+1] = dup
	}
	marked := 0
	for i := range kind {
		if kind[i] == dup && marked < badDates {
			kind[i] = bad
			marked++
		}
	}

	layout := bulkLayout()
	data := make([]byte, 0, rows*(12+10+bulkFillerCols*(bulkFillerWidth+1)+3))
	landed := make([]int, 0, rows)
	for i := 0; i < rows; i++ {
		key := i
		if kind[i] == dup {
			key = landed[rng.Intn(len(landed))]
		}
		data = appendPadded(data, key, 12)
		data = append(data, '|')
		if kind[i] == bad {
			data = append(data, "9999-99-99"...)
		} else {
			data = append(data, '2', '0')
			data = appendPadded(data, rng.Intn(24), 2)
			data = append(data, '-')
			data = appendPadded(data, 1+rng.Intn(12), 2)
			data = append(data, '-')
			data = appendPadded(data, 1+rng.Intn(28), 2)
		}
		for c := 0; c < bulkFillerCols; c++ {
			data = append(data, '|')
			for j := 0; j < bulkFillerWidth; j += 8 {
				// eight letters per draw: filler is most of the input and
				// set-up time should not be dominated by the PRNG
				v := rng.Uint64()
				for k := 0; k < 8; k++ {
					data = append(data, 'a'+byte(v&0xff)%26)
					v >>= 8
				}
			}
		}
		data = append(data, '\n')
		if kind[i] == clean {
			landed = append(landed, key)
		}
	}

	maxErrors := 0
	if badDates+dupKeys > 0 {
		maxErrors = 2 * (badDates + dupKeys)
	}
	return &bulkInput{
		Table:    table,
		DDL:      bulkDDL(table),
		Script:   bulkScript(table, layout, maxErrors),
		Data:     data,
		Layout:   layout,
		DML:      bulkDML(table),
		Rows:     int64(rows),
		Inserted: int64(len(landed)),
		ErrorsET: int64(badDates),
		ErrorsUV: int64(dupKeys),
	}
}

func appendPadded(dst []byte, v, width int) []byte {
	s := strconv.Itoa(v)
	for i := len(s); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// cdcDelta is one generated change record with the time, relative to the
// start of its phase schedule, at which the source system produced it.
type cdcDelta struct {
	Op     byte // 'I', 'U' or 'D'
	Key    int
	Record []byte        // vartext record incl. trailing newline, op marker stripped
	Due    time.Duration // offset from the start of the open-loop window
}

// cdcRow is the oracle's image of one target row.
type cdcRow struct {
	Name string
	Date string
}

// cdcStreamInput is one CDC stream's generated world: the preloaded keys, the
// delta sequence with its fixed schedule, and the last-image-per-key oracle.
type cdcStreamInput struct {
	Name    string // durable stream name
	Table   string
	DDL     string
	Layout  *ltype.Layout
	DML     string
	Preload *bulkInput // vartext import that seeds the target before the stream opens

	Deltas  []cdcDelta
	preKeys int
}

func cdcLayout() *ltype.Layout {
	return &ltype.Layout{Name: "CdcLayout", Fields: []ltype.Field{
		{Name: "ID", Type: ltype.VarChar(8)},
		{Name: "NAME", Type: ltype.VarChar(40)},
		{Name: "DT", Type: ltype.VarChar(10)},
	}}
}

func cdcDML(table string) string {
	return "insert into " + table + " values (trim(:ID), trim(:NAME), cast(:DT as DATE format 'YYYY-MM-DD'))"
}

func cdcKey(k int) string { return "S" + string(appendPadded(nil, k, 7)) }

// skewed draws an index in [0, n) with a quadratic bias toward 0.
func skewed(rng *rand.Rand, n int) int {
	r := rng.Float64()
	return int(r * r * float64(n))
}

// cdcPhase is one constant-rate stretch of the open-loop schedule.
type cdcPhase struct {
	Dur  time.Duration
	Rate float64 // deltas per second per stream; 0 = closed loop, flat out
}

// genCDC builds one stream: preKeys preloaded keys, then deltas whose due
// times follow phases; a closed-loop phase contributes satDeltas deltas, all
// due when it starts. Keys are drawn with a quadratic skew over twice the
// preloaded space: about 20 % of deltas insert a dead key, 70 % update and
// 10 % delete a live one (an op aimed at a key in the wrong state becomes the
// op that state allows).
func genCDC(rng *rand.Rand, name, table string, preKeys int, phases []cdcPhase, satDeltas int) *cdcStreamInput {
	in := &cdcStreamInput{
		Name:    name,
		Table:   table,
		Layout:  cdcLayout(),
		DML:     cdcDML(table),
		preKeys: preKeys,
		DDL: "CREATE TABLE " + table +
			" (ID VARCHAR(8) NOT NULL, NAME VARCHAR(40), DT DATE, PRIMARY KEY (ID))",
	}

	// Preload: keys [0, preKeys) live, through the same vartext import path.
	var pre []byte
	for k := 0; k < preKeys; k++ {
		pre = append(pre, cdcKey(k)...)
		pre = append(pre, "|seed "...)
		pre = strconv.AppendInt(pre, int64(k), 10)
		pre = append(pre, "|2020-01-01\n"...)
	}
	in.Preload = &bulkInput{
		Table: table, DDL: in.DDL, Data: pre, Layout: in.Layout, DML: in.DML,
		Rows: int64(preKeys), Inserted: int64(preKeys),
		Script: cdcPreloadScript(table, in.Layout),
	}

	live := make([]bool, 2*preKeys)
	for k := 0; k < preKeys; k++ {
		live[k] = true
	}
	emit := func(due time.Duration, seq int) {
		var op byte
		var key int
		switch r := rng.Float64(); {
		case r < 0.20: // insert: a dead key from the upper half of the space
			op = 'I'
			key = preKeys + rng.Intn(preKeys)
			for tries := 0; live[key] && tries < 8; tries++ {
				key = preKeys + rng.Intn(preKeys)
			}
			if live[key] {
				op = 'U'
			}
		case r < 0.90:
			op, key = 'U', skewed(rng, preKeys)
			if !live[key] {
				op = 'I'
			}
		default:
			op, key = 'D', skewed(rng, 2*preKeys)
			if !live[key] {
				op, key = 'U', skewed(rng, preKeys)
				if !live[key] {
					op = 'I'
				}
			}
		}
		var rec []byte
		rec = append(rec, cdcKey(key)...)
		if op == 'D' {
			rec = append(rec, "||\n"...)
			live[key] = false
		} else {
			rec = append(rec, "|img "...)
			rec = strconv.AppendInt(rec, int64(seq), 10)
			rec = append(rec, "|20"...)
			rec = appendPadded(rec, 21+rng.Intn(8), 2)
			rec = append(rec, '-')
			rec = appendPadded(rec, 1+rng.Intn(12), 2)
			rec = append(rec, '-')
			rec = appendPadded(rec, 1+rng.Intn(28), 2)
			rec = append(rec, '\n')
			live[key] = true
		}
		in.Deltas = append(in.Deltas, cdcDelta{Op: op, Key: key, Record: rec, Due: due})
	}

	var base time.Duration
	seq := 0
	for _, ph := range phases {
		if ph.Rate <= 0 {
			for i := 0; i < satDeltas; i++ {
				seq++
				emit(base, seq)
			}
			continue
		}
		gap := time.Duration(float64(time.Second) / ph.Rate)
		for t := time.Duration(0); t < ph.Dur; t += gap {
			seq++
			emit(base+t, seq)
		}
		base += ph.Dur
	}
	return in
}

func cdcPreloadScript(table string, layout *ltype.Layout) string {
	var sb strings.Builder
	sb.WriteString(".logon host/bench,bench;\n.layout " + layout.Name + ";\n")
	for _, f := range layout.Fields {
		fmt.Fprintf(&sb, ".field %s %s;\n", f.Name, f.Type)
	}
	fmt.Fprintf(&sb, ".begin import tables %s errortables %s_PET %s_PUV;\n", table, table, table)
	sb.WriteString(".dml label Ins;\n" + cdcDML(table) + ";\n")
	fmt.Fprintf(&sb, ".import infile %s format vartext '|' layout %s apply Ins;\n.end load;\n", bulkInfile, layout.Name)
	return sb.String()
}

// oracleAfter replays the first n deltas tuple-at-a-time over the preloaded
// keys and returns the expected target content: the last image per key.
func (in *cdcStreamInput) oracleAfter(n int) map[string]cdcRow {
	rows := make(map[string]cdcRow, in.preKeys)
	for k := 0; k < in.preKeys; k++ {
		rows[cdcKey(k)] = cdcRow{Name: "seed " + strconv.Itoa(k), Date: "2020-01-01"}
	}
	for _, d := range in.Deltas[:n] {
		id := cdcKey(d.Key)
		if d.Op == 'D' {
			delete(rows, id)
			continue
		}
		f := strings.Split(strings.TrimSuffix(string(d.Record), "\n"), "|")
		rows[id] = cdcRow{Name: f[1], Date: f[2]}
	}
	return rows
}

// nightlyInput is one client's §8-style scenario with its database renamed so
// two clients can run the same script shape side by side on one node.
type nightlyInput struct {
	DB       string
	Scenario *scenario.Scenario
}

// genNightly generates the scenario and rewrites its WL database to db.
func genNightly(sz sizes, seed int64, db string) (*nightlyInput, error) {
	sc, err := scenario.Generate(scenario.Config{Groups: sz.NightlyGroups, RowsPerGroup: sz.NightlyRowsPerGroup, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generating nightly scenario: %w", err)
	}
	re := func(s string) string { return strings.ReplaceAll(s, "WL.", db+".") }
	sc.Script = re(sc.Script)
	// Two clients share the node's checkpoint table, so their streams need
	// distinct durable names as well as distinct tables.
	sc.Script = strings.ReplaceAll(sc.Script, "name wl_cdc", "name "+strings.ToLower(db)+"_cdc")
	for i := range sc.DDL {
		sc.DDL[i] = re(sc.DDL[i])
	}
	for i := range sc.Groups {
		sc.Groups[i].Table = re(sc.Groups[i].Table)
	}
	for i := range sc.Tables {
		sc.Tables[i].Name = re(sc.Tables[i].Name)
		for j := range sc.Tables[i].ErrTables {
			sc.Tables[i].ErrTables[j] = re(sc.Tables[i].ErrTables[j])
		}
	}
	for i := range sc.Expect {
		sc.Expect[i].Table = re(sc.Expect[i].Table)
		errRows := make(map[string]int64, len(sc.Expect[i].ErrRows))
		for k, v := range sc.Expect[i].ErrRows {
			errRows[re(k)] = v
		}
		sc.Expect[i].ErrRows = errRows
	}
	return &nightlyInput{DB: db, Scenario: sc}, nil
}

// streamName returns the durable name of the scenario's CDC stream.
func (in *nightlyInput) streamName() string { return strings.ToLower(in.DB) + "_cdc" }
