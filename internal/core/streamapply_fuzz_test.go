package core_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"etlvirt/internal/cdw"
	"etlvirt/internal/core"
	"etlvirt/internal/errhandle"
	"etlvirt/internal/ltype"
	"etlvirt/internal/stream"
	"etlvirt/internal/testhost"
	"etlvirt/internal/wire"
)

// Fault bits of one fuzzed image.
const (
	faultDate    = 1 << iota // D is not a date: TO_DATE fails (2666)
	faultNull                // A is empty: NULL into NOT NULL A (3604)
	faultTooLong             // B has six characters: too long for VARCHAR(4) (3996)
)

// diffImage is one fuzzed CDC image.
type diffImage struct {
	seq    int64
	del    bool
	key    string
	faults int
}

// diffRow is one target row as the model keeps it.
type diffRow struct{ a, b, d, c string }

// diffET is one error-table row.
type diffET struct {
	seq, seqEnd int64
	code        int64
}

// diffOutcome is what one apply left behind: target, error rows and counts.
type diffOutcome struct {
	target        map[string]diffRow
	et            []diffET
	ins, upd, del uint64
}

// fields renders image i's vartext fields K|A|B|D|C.
func (im diffImage) fields() []string {
	a, b, d := fmt.Sprintf("a%d", im.seq), fmt.Sprintf("b%d", im.seq%100), "2024-01-02"
	if im.faults&faultNull != 0 {
		a = ""
	}
	if im.faults&faultTooLong != 0 {
		b = "bbbbbb"
	}
	if im.faults&faultDate != 0 {
		d = "2024-99-99"
	}
	return []string{im.key, a, b, d, fmt.Sprintf("c%d", im.seq)}
}

// fault is the error a tuple-at-a-time apply of an upsert image raises, 0
// for none. An update evaluates, casts and checks its SET columns one at a
// time in fed order (A, B, D); an insert evaluates every expression first,
// then casts every value, then checks NOT NULL in table order.
func (im diffImage) fault(insert bool) int64 {
	f := im.faults
	if insert {
		switch {
		case f&faultDate != 0:
			return cdw.CodeDateConv
		case f&faultTooLong != 0:
			return cdw.CodeStringTrunc
		case f&faultNull != 0:
			return cdw.CodeNotNull
		}
		return 0
	}
	switch {
	case f&faultNull != 0:
		return cdw.CodeNotNull
	case f&faultTooLong != 0:
		return cdw.CodeStringTrunc
	case f&faultDate != 0:
		return cdw.CodeDateConv
	}
	return 0
}

// lastImageModel is the third voter: per key, the last image that applied,
// replayed tuple at a time in Go. skip names images a block entry kept out.
func lastImageModel(pre map[string]diffRow, images []diffImage, feedAll bool, skip func(int64) bool) diffOutcome {
	out := diffOutcome{target: map[string]diffRow{}}
	for k, r := range pre {
		out.target[k] = r
	}
	for _, im := range images {
		if skip(im.seq) {
			continue
		}
		old, present := out.target[im.key]
		if im.del {
			if present {
				out.del++
				delete(out.target, im.key)
			}
			continue
		}
		if code := im.fault(!present); code != 0 {
			out.et = append(out.et, diffET{im.seq, im.seq, code})
			continue
		}
		f := im.fields()
		row := diffRow{a: f[1], b: f[2], d: f[3], c: f[4]}
		switch {
		case !feedAll && present:
			row.c = old.c
		case !feedAll:
			row.c = ""
		}
		if present {
			out.upd++
		} else {
			out.ins++
		}
		out.target[im.key] = row
	}
	return out
}

var diffTables atomic.Int64

// FuzzStreamApplyDifferential drives one CDC micro-batch through three
// voters and requires them to agree on target, error-table rows and I/U/D
// counts: the virtualizer's net-effect commit against an in-process CDW, the
// legacy EDW's tuple-at-a-time stream, and lastImageModel. An image is an
// insert, update or delete of one of 8 keys; an upsert image may carry a bad
// date, a NULL for a NOT NULL column and an over-length value at once, so
// its error code depends on whether it inserts or updates. The DML feeds
// every target column or leaves C unfed, so a key deleted and re-inserted
// inside the batch loses its C. Above the stream's MaxErrors the
// virtualizer records the rest as block entries where the EDW records every
// reject; then the virtualizer must equal the model with the blocked images
// left out, and its individual entries must be exactly the model's rejects.
func FuzzStreamApplyDifferential(f *testing.F) {
	// script: 2 bytes per image — op (low 2 bits: insert, update, delete,
	// delete) and key (next 3 bits), then fault bits. pre: which keys the
	// target holds before the batch. maxErrors: 0 is the server default.
	f.Add([]byte{0x00, 0, 0x04, 0, 0x01, 0, 0x06, 0, 0x00, faultDate, 0x0c, 0}, uint8(0x08), uint8(0), true)
	f.Add([]byte{0x00, 0, 0x02, 0, 0x00, 0, 0x01, 0, 0x0a, 0, 0x09, faultDate}, uint8(0x02), uint8(0), false)
	f.Add([]byte{0x05, faultNull | faultTooLong, 0x04, faultNull | faultTooLong | faultDate, 0x09, faultNull, 0x08, faultTooLong}, uint8(0x01), uint8(0), true)
	f.Add([]byte{0x01, faultDate, 0x05, faultNull, 0x09, faultTooLong, 0x0d, faultDate, 0x11, faultNull, 0x15, 0, 0x19, faultNull}, uint8(0xff), uint8(2), false)
	f.Add([]byte{0x02, 0, 0x00, faultNull, 0x01, 0, 0x03, 0, 0x00, 0, 0x1e, 0, 0x1c, faultTooLong, 0x1d, 0}, uint8(0x81), uint8(1), false)

	p := testhost.StartPair(f, testhost.Options{Node: func(cfg *core.Config) {
		cfg.StreamMinBatch, cfg.StreamMaxBatch = 64, 64 // one batch per input
	}})
	f.Fuzz(func(t *testing.T, script []byte, pre, maxErrors uint8, feedAll bool) {
		if len(script) > 128 {
			script = script[:128]
		}
		var images []diffImage
		for i := 0; i+1 < len(script); i += 2 {
			images = append(images, diffImage{
				seq:    int64(i/2 + 1),
				del:    script[i]&3 >= 2,
				key:    fmt.Sprintf("k%d", script[i]>>2&7),
				faults: int(script[i+1] & 7),
			})
		}
		if len(images) == 0 {
			return
		}
		budget := int(maxErrors % 9)

		n := diffTables.Add(1)
		table := fmt.Sprintf("FZ.T%d", n)
		preRows := map[string]diffRow{}
		ddl := []string{"CREATE TABLE " + table +
			" (K VARCHAR(3) NOT NULL, A VARCHAR(4) NOT NULL, B VARCHAR(4), D DATE, C VARCHAR(8), PRIMARY KEY (K))"}
		for k := 0; k < 8; k++ {
			if pre&(1<<k) != 0 {
				key := fmt.Sprintf("k%d", k)
				preRows[key] = diffRow{a: "pre", b: "p", d: "2020-01-01", c: "prec"}
				ddl = append(ddl, fmt.Sprintf("INSERT INTO %s VALUES ('%s', 'pre', 'p', DATE '2020-01-01', 'prec')", table, key))
			}
		}
		for _, s := range ddl {
			for _, eng := range []*cdw.Engine{p.EDW.Engine(), p.CDWEng} {
				if _, err := eng.ExecSQL(s); err != nil {
					t.Fatalf("%s: %v", s, err)
				}
			}
		}

		cols, vals := "K, A, B, D, C", "trim(:K), nullif(trim(:A), ''), trim(:B), cast(:D as DATE format 'YYYY-MM-DD'), trim(:C)"
		if !feedAll {
			cols, vals = "K, A, B, D", "trim(:K), nullif(trim(:A), ''), trim(:B), cast(:D as DATE format 'YYYY-MM-DD')"
		}
		begin := &wire.BeginStream{
			Name:       fmt.Sprintf("fz%d", n),
			Table:      table,
			ErrTableET: table + "_ET",
			Layout: &ltype.Layout{Name: "FZ", Fields: []ltype.Field{
				{Name: "K", Type: ltype.VarChar(3)},
				{Name: "A", Type: ltype.VarChar(8)},
				{Name: "B", Type: ltype.VarChar(8)},
				{Name: "D", Type: ltype.VarChar(10)},
				{Name: "C", Type: ltype.VarChar(8)},
			}},
			Format:    wire.FormatVartext,
			Delim:     '|',
			SQL:       fmt.Sprintf("insert into %s (%s) values (%s)", table, cols, vals),
			MaxErrors: uint32(budget),
		}
		var payload []byte
		for _, im := range images {
			op := stream.OpUpdate
			switch {
			case im.del:
				op = stream.OpDelete
			case script[2*(im.seq-1)]&3 == 0:
				op = stream.OpInsert
			}
			payload = vtDelta(payload, op, im.fields()...)
		}

		virt := diffRun(t, p.NodeAddr, p.CDWEng, begin, len(images), payload)
		legacy := diffRun(t, p.EDWAddr, p.EDW.Engine(), begin, len(images), payload)

		var blocks, individual []diffET
		for _, e := range virt.et {
			if e.code == errhandle.CodeMaxErrors {
				blocks = append(blocks, e)
			} else {
				individual = append(individual, e)
			}
		}
		blocked := func(seq int64) bool {
			for _, b := range blocks {
				if b.seq <= seq && seq <= b.seqEnd {
					return true
				}
			}
			return false
		}
		model := lastImageModel(preRows, images, feedAll, blocked)
		virt.et = individual
		if !reflect.DeepEqual(virt, model) {
			t.Fatalf("net-effect commit and last-image model disagree (blocks %v)\nvirt:  %+v\nmodel: %+v", blocks, virt, model)
		}
		if len(blocks) > 0 {
			if budget == 0 || len(individual) != budget {
				t.Fatalf("block entries %v after %d individual errors, budget %d", blocks, len(individual), budget)
			}
			return
		}
		if !reflect.DeepEqual(virt, legacy) {
			t.Fatalf("net-effect commit and tuple-at-a-time EDW disagree\nvirt:   %+v\nlegacy: %+v", virt, legacy)
		}
	})
}

// diffRun streams payload through the server at addr as one stream and
// returns what it left in eng.
func diffRun(t *testing.T, addr string, eng *cdw.Engine, begin *wire.BeginStream, count int, payload []byte) diffOutcome {
	t.Helper()
	c := dialStream(t, addr)
	defer c.Close()
	if err := c.Send(1, begin); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ok, is := m.(*wire.StreamOK)
	if !is {
		t.Fatalf("BeginStream reply = %#v", m)
	}
	sendFrame(t, c, ok.StreamID, 1, count, payload)
	done := endStream(t, c, ok.StreamID)

	out := diffOutcome{target: map[string]diffRow{}, ins: done.Inserted, upd: done.Updated, del: done.Deleted}
	res, err := eng.ExecSQL("SELECT K, A, B, TO_CHAR(D, 'YYYY-MM-DD'), C FROM " + begin.Table)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		out.target[r[0].S] = diffRow{a: r[1].Render(), b: r[2].Render(), d: r[3].Render(), c: r[4].Render()}
	}
	res, err = eng.ExecSQL("SELECT SEQNO, SEQNO_END, ERRCODE FROM " + begin.ErrTableET)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		out.et = append(out.et, diffET{r[0].I, r[1].I, r[2].I})
	}
	sort.Slice(out.et, func(i, k int) bool { return out.et[i].seq < out.et[k].seq })
	if int(done.ErrorsET) != len(out.et) {
		t.Errorf("%s: ErrorsET = %d, error table holds %d rows", addr, done.ErrorsET, len(out.et))
	}
	return out
}
