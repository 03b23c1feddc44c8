package convert

// Hot-path regression coverage for the zero-allocation conversion rewrite:
// byte-identity of ConvertInto against Convert, hard allocs-per-chunk
// bounds via testing.AllocsPerRun, and the benchmarks whose before/after numbers
// live in EXPERIMENTS.md.

import (
	"bytes"
	"testing"

	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"
)

const benchRows = 1000

// benchIndicatorChunk builds a 7-field mixed-kind indicator chunk: the
// indicator workload of EXPERIMENTS.md.
func benchIndicatorChunk(tb testing.TB, rows int) (*Converter, []byte) {
	tb.Helper()
	layout := &ltype.Layout{Name: "Bench", Fields: []ltype.Field{
		{Name: "ID", Type: ltype.Simple(ltype.KindInteger)},
		{Name: "NAME", Type: ltype.VarChar(40)},
		{Name: "CITY", Type: ltype.Char(12)},
		{Name: "D", Type: ltype.Simple(ltype.KindDate)},
		{Name: "T", Type: ltype.Simple(ltype.KindTime)},
		{Name: "AMT", Type: ltype.Decimal(12, 2)},
		{Name: "F", Type: ltype.Simple(ltype.KindFloat)},
	}}
	var payload []byte
	var err error
	for i := 0; i < rows; i++ {
		dec := ltype.IntValue(ltype.KindDecimal, int64(100000+i))
		dec.S = ltype.FormatDecimal(dec.I, 2)
		payload, err = ltype.EncodeRecord(payload, layout, ltype.Record{
			ltype.IntValue(ltype.KindInteger, int64(i)),
			ltype.StringValue(ltype.KindVarChar, "Some Customer Name"),
			ltype.StringValue(ltype.KindChar, "Springfield"),
			ltype.DateValue(2020, 1+i%12, 1+i%28),
			ltype.IntValue(ltype.KindTime, int64(i%86400)),
			dec,
			ltype.FloatValue(float64(i) * 1.5),
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	c, err := NewConverter(layout, wire.FormatIndicator, 0, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return c, payload
}

// benchVartextChunk builds a 3-field vartext chunk matching the layout of
// the package's historical vartext benchmark.
func benchVartextChunk(tb testing.TB, rows int) (*Converter, []byte) {
	tb.Helper()
	c, err := NewConverter(custLayout(), wire.FormatVartext, '|', Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var payload []byte
	for i := 0; i < rows; i++ {
		payload = append(payload, "12345|Some Customer Name|2020-01-01\n"...)
	}
	return c, payload
}

// TestConvertIntoMatchesConvert requires the recycled-buffer path to emit
// byte-identical CSV and identical errors to the allocating wrapper, for
// both formats — the semantic-equivalence half of the acceptance criteria.
func TestConvertIntoMatchesConvert(t *testing.T) {
	for _, format := range []string{"indicator", "vartext"} {
		var c *Converter
		var payload []byte
		if format == "indicator" {
			c, payload = benchIndicatorChunk(t, 100)
		} else {
			c, payload = benchVartextChunk(t, 100)
		}
		want, err := c.Convert(payload, 7)
		if err != nil {
			t.Fatal(err)
		}
		// A dirty recycled buffer must not leak into the output.
		dst := append(getScratchBuf(), "GARBAGE"...)[:0]
		got, err := c.ConvertInto(dst, payload, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.CSV, want.CSV) {
			t.Errorf("%s: ConvertInto CSV differs from Convert", format)
		}
		if got.Rows != want.Rows || len(got.Errors) != len(want.Errors) {
			t.Errorf("%s: rows/errors %d/%d vs %d/%d", format,
				got.Rows, len(got.Errors), want.Rows, len(want.Errors))
		}
	}
}

func getScratchBuf() []byte { return make([]byte, 0, 64<<10) }

// chunkAllocBound caps the allocations of one steady-state ConvertInto
// call, whatever the chunk's row count. The cost is 2–3 per chunk (the
// payload's string copy, the Result, and now and then the scratch pool
// refilling); under -race, sync.Pool drops random Puts and adds up to one
// more. A single allocation per row costs benchRows, so any per-row
// regression fails this gate by two orders of magnitude.
const chunkAllocBound = 8

// checkChunkAllocs is the alloc-regression gate for one converter: a
// benchRows-row chunk converts into a recycled buffer in at most
// chunkAllocBound allocations.
func checkChunkAllocs(t *testing.T, c *Converter, payload []byte) {
	t.Helper()
	dst := make([]byte, 0, 2*len(payload))
	// Warm the scratch pool so AllocsPerRun measures steady state.
	if _, err := c.ConvertInto(dst[:0], payload, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := c.ConvertInto(dst[:0], payload, 1)
		if err != nil || res.Rows != benchRows {
			t.Fatal("convert failed")
		}
	})
	if allocs > chunkAllocBound {
		t.Errorf("%.0f allocations per %d-row chunk, want <= %d", allocs, benchRows, chunkAllocBound)
	}
}

// TestConvertIndicatorAllocBound gates the indicator path over the bench
// layout: integer, varchar, char, date, time, decimal and float fields.
func TestConvertIndicatorAllocBound(t *testing.T) {
	c, payload := benchIndicatorChunk(t, benchRows)
	checkChunkAllocs(t, c, payload)
}

// TestConvertVartextAllocBound applies the same gate to the vartext path.
func TestConvertVartextAllocBound(t *testing.T) {
	c, payload := benchVartextChunk(t, benchRows)
	checkChunkAllocs(t, c, payload)
}

// BenchmarkConvertIndicator measures the recycled-buffer indicator path:
// rows/s is b.N*benchRows over elapsed time; MB/s and allocs/op are
// reported for EXPERIMENTS.md.
func BenchmarkConvertIndicator(b *testing.B) {
	c, payload := benchIndicatorChunk(b, benchRows)
	dst := make([]byte, 0, 2*len(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ConvertInto(dst[:0], payload, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != benchRows {
			b.Fatal("rows")
		}
		dst = res.CSV // recycle across iterations, like the pipeline does
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkConvertVartext measures the recycled-buffer vartext path.
func BenchmarkConvertVartext(b *testing.B) {
	c, payload := benchVartextChunk(b, benchRows)
	dst := make([]byte, 0, 2*len(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ConvertInto(dst[:0], payload, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != benchRows {
			b.Fatal("rows")
		}
		dst = res.CSV
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "rows/s")
}
