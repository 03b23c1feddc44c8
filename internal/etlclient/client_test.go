package etlclient

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"etlvirt/internal/ltype"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

func TestSplitInputVartext(t *testing.T) {
	data := []byte("a|1\nb|2\nc|3\nd|4\ne|5\n")
	chunks, total, err := splitInput(data, wire.FormatVartext, 2)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(chunks) != 3 {
		t.Fatalf("total=%d chunks=%d", total, len(chunks))
	}
	if chunks[0].firstRow != 1 || chunks[0].count != 2 || string(chunks[0].payload) != "a|1\nb|2\n" {
		t.Errorf("chunk0: %+v", chunks[0])
	}
	if chunks[1].firstRow != 3 || chunks[2].firstRow != 5 || chunks[2].count != 1 {
		t.Errorf("chunk row numbering: %+v %+v", chunks[1], chunks[2])
	}
	for i, c := range chunks {
		if c.seq != uint64(i) {
			t.Errorf("chunk %d seq %d", i, c.seq)
		}
	}
}

func TestSplitInputVartextNoTrailingNewline(t *testing.T) {
	chunks, total, err := splitInput([]byte("a|1\nb|2"), wire.FormatVartext, 10)
	if err != nil || total != 2 || len(chunks) != 1 {
		t.Fatalf("chunks=%v total=%d err=%v", chunks, total, err)
	}
}

func TestSplitInputIndicator(t *testing.T) {
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "A", Type: ltype.VarChar(10)},
		{Name: "B", Type: ltype.Simple(ltype.KindInteger)},
	}}
	var data []byte
	var err error
	for i := 0; i < 7; i++ {
		data, err = ltype.EncodeRecord(data, layout, ltype.Record{
			ltype.StringValue(ltype.KindVarChar, strings.Repeat("x", i)),
			ltype.IntValue(ltype.KindInteger, int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	chunks, total, err := splitInput(data, wire.FormatIndicator, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 || len(chunks) != 3 {
		t.Fatalf("total=%d chunks=%d", total, len(chunks))
	}
	// every chunk must decode cleanly on record boundaries
	row := 0
	for _, c := range chunks {
		payload := c.payload
		n := 0
		for len(payload) > 0 {
			rec, used, err := ltype.DecodeRecord(payload, layout)
			if err != nil {
				t.Fatalf("chunk decode: %v", err)
			}
			if rec[1].I != int64(row) {
				t.Errorf("row order broken: got %d want %d", rec[1].I, row)
			}
			payload = payload[used:]
			row++
			n++
		}
		if uint32(n) != c.count {
			t.Errorf("chunk count %d, decoded %d", c.count, n)
		}
	}
}

func TestSplitInputIndicatorTruncated(t *testing.T) {
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "A", Type: ltype.VarChar(10)},
	}}
	data, err := ltype.EncodeRecord(nil, layout, ltype.Record{ltype.StringValue(ltype.KindVarChar, "hello")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := splitInput(data[:len(data)-2], wire.FormatIndicator, 10); err == nil {
		t.Error("truncated input accepted")
	}
	if _, _, err := splitInput([]byte{0x01}, wire.FormatIndicator, 10); err == nil {
		t.Error("short input accepted")
	}
}

func TestSplitInputEmpty(t *testing.T) {
	chunks, total, err := splitInput(nil, wire.FormatVartext, 10)
	if err != nil || total != 0 || len(chunks) != 0 {
		t.Errorf("empty vartext: %v %d %v", chunks, total, err)
	}
	chunks, total, err = splitInput(nil, wire.FormatIndicator, 10)
	if err != nil || total != 0 || len(chunks) != 0 {
		t.Errorf("empty indicator: %v %d %v", chunks, total, err)
	}
}

// TestSplitInputAllocBound: splitInput sizes each chunk's payload before
// filling it, so a chunk costs one payload allocation, not a doubling
// series. Everything else it allocates is the vartext line index (measured
// on its own) and the chunk slice's growth.
func TestSplitInputAllocBound(t *testing.T) {
	const records, per = 2000, 250
	chunks := records / per
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "A", Type: ltype.VarChar(40)},
		{Name: "B", Type: ltype.Simple(ltype.KindInteger)},
	}}
	var vartext, indicator []byte
	var err error
	for i := 0; i < records; i++ {
		name := fmt.Sprintf("customer %d", i)
		vartext = fmt.Appendf(vartext, "%s|%d\n", name, i)
		indicator, err = ltype.EncodeRecord(indicator, layout, ltype.Record{
			ltype.StringValue(ltype.KindVarChar, name), ltype.IntValue(ltype.KindInteger, int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sliceGrowth := float64(bits.Len(uint(chunks)) + 1)
	lineIndex := testing.AllocsPerRun(20, func() { ltype.SplitVartextLines(vartext) })
	for _, c := range []struct {
		name     string
		data     []byte
		format   wire.DataFormat
		overhead float64
	}{
		{"vartext", vartext, wire.FormatVartext, lineIndex + sliceGrowth},
		{"indicator", indicator, wire.FormatIndicator, sliceGrowth},
	} {
		got, _, err := splitInput(c.data, c.format, per)
		if err != nil || len(got) != chunks {
			t.Fatalf("%s: %d chunks, err %v", c.name, len(got), err)
		}
		allocs := testing.AllocsPerRun(20, func() { splitInput(c.data, c.format, per) })
		if limit := float64(chunks) + c.overhead; allocs > limit {
			t.Errorf("%s: %v allocations for %d chunks, want at most %v (one payload each + %v)",
				c.name, allocs, chunks, limit, c.overhead)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ChunkRecords != 500 || o.ReadFile == nil || o.WriteFile == nil {
		t.Errorf("defaults: %+v", o)
	}
}

func TestSplitDeltasVartext(t *testing.T) {
	data := []byte("I|100|Alice\nU|100|Alicia\nD|200|\nD\nI|300|Carol")
	ds, err := splitDeltas(data, wire.FormatVartext, '|')
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		op  stream.Op
		rec string
	}{
		{stream.OpInsert, "100|Alice\n"},
		{stream.OpUpdate, "100|Alicia\n"},
		{stream.OpDelete, "200|\n"},
		{stream.OpDelete, "\n"}, // op-only line: empty record
		{stream.OpInsert, "300|Carol\n"},
	}
	if len(ds) != len(want) {
		t.Fatalf("deltas: %d, want %d", len(ds), len(want))
	}
	for i, w := range want {
		if ds[i].op != w.op || string(ds[i].record) != w.rec {
			t.Errorf("delta %d: op=%c rec=%q, want op=%c rec=%q", i, ds[i].op, ds[i].record, w.op, w.rec)
		}
	}
}

func TestSplitDeltasVartextErrors(t *testing.T) {
	if _, err := splitDeltas([]byte("X|1|a\n"), wire.FormatVartext, '|'); err == nil {
		t.Error("bad op marker accepted")
	}
	if _, err := splitDeltas([]byte("I,1,a\n"), wire.FormatVartext, '|'); err == nil {
		t.Error("wrong delimiter after op accepted")
	}
	ds, err := splitDeltas(nil, wire.FormatVartext, '|')
	if err != nil || len(ds) != 0 {
		t.Errorf("empty input: %v %v", ds, err)
	}
}

func TestSplitDeltasIndicator(t *testing.T) {
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "A", Type: ltype.VarChar(10)},
	}}
	rec, err := ltype.EncodeRecord(nil, layout, ltype.Record{ltype.StringValue(ltype.KindVarChar, "hi")})
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	data = stream.AppendDelta(data, stream.OpInsert, rec)
	data = stream.AppendDelta(data, stream.OpDelete, rec)
	ds, err := splitDeltas(data, wire.FormatIndicator, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].op != stream.OpInsert || ds[1].op != stream.OpDelete ||
		string(ds[0].record) != string(rec) {
		t.Errorf("deltas: %+v", ds)
	}
	if _, err := splitDeltas(data[:len(data)-2], wire.FormatIndicator, 0); err == nil {
		t.Error("truncated input accepted")
	}
}
