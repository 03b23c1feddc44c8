package stream

import (
	"bytes"
	"encoding/binary"
	"testing"

	"etlvirt/internal/wire"
)

func indicatorRecord(body []byte) []byte {
	rec := binary.BigEndian.AppendUint16(nil, uint16(len(body)))
	rec = append(rec, body...)
	return append(rec, 0x0a)
}

// TestDeltaRoundTripVartext: each record is one vartext line, cut by the
// same escape-aware scan an import uses, so a backslash-escaped newline
// stays field data inside its record and an escaped backslash before a
// newline does not escape the newline.
func TestDeltaRoundTripVartext(t *testing.T) {
	want := []struct {
		op  Op
		rec string
	}{
		{OpInsert, "1|alpha\n"}, {OpUpdate, "2|beta\n"}, {OpInsert, "3|a\\\nb\n"},
		{OpUpdate, "4|c\\\\\n"}, {OpDelete, "1|alpha\n"},
	}
	var payload []byte
	for _, w := range want {
		payload = AppendDelta(payload, w.op, []byte(w.rec))
	}
	rest := payload
	for i, w := range want {
		op, rec, r, err := NextDelta(rest, wire.FormatVartext)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if op != w.op || string(rec) != w.rec {
			t.Fatalf("delta %d: got %c %q, want %c %q", i, op, rec, w.op, w.rec)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %q", rest)
	}
}

func TestDeltaRoundTripIndicator(t *testing.T) {
	recs := [][]byte{indicatorRecord([]byte("abc")), indicatorRecord([]byte("defgh"))}
	var payload []byte
	payload = AppendDelta(payload, OpInsert, recs[0])
	payload = AppendDelta(payload, OpDelete, recs[1])

	op, rec, rest, err := NextDelta(payload, wire.FormatIndicator)
	if err != nil || op != OpInsert || !bytes.Equal(rec, recs[0]) {
		t.Fatalf("first delta: %c %q %v", op, rec, err)
	}
	op, rec, rest, err = NextDelta(rest, wire.FormatIndicator)
	if err != nil || op != OpDelete || !bytes.Equal(rec, recs[1]) {
		t.Fatalf("second delta: %c %q %v", op, rec, err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %q", rest)
	}
}

func TestDeltaVartextMissingNewline(t *testing.T) {
	op, rec, rest, err := NextDelta([]byte("I1|alpha"), wire.FormatVartext)
	if err != nil || op != OpInsert || string(rec) != "1|alpha" || len(rest) != 0 {
		t.Fatalf("got %c %q rest=%q err=%v", op, rec, rest, err)
	}
}

func TestDeltaErrors(t *testing.T) {
	if _, _, _, err := NextDelta(nil, wire.FormatVartext); err != ErrTruncated {
		t.Fatalf("empty payload: %v", err)
	}
	if _, _, _, err := NextDelta([]byte("X1|a\n"), wire.FormatVartext); err != ErrBadOp {
		t.Fatalf("bad op: %v", err)
	}
	if _, _, _, err := NextDelta([]byte{byte(OpInsert), 0x00}, wire.FormatIndicator); err != ErrTruncated {
		t.Fatalf("short length prefix: %v", err)
	}
	truncated := []byte{byte(OpInsert), 0x00, 0x10, 'a'}
	if _, _, _, err := NextDelta(truncated, wire.FormatIndicator); err != ErrTruncated {
		t.Fatalf("truncated body: %v", err)
	}
}

// BenchmarkNextDelta pins the per-record delta framing as allocation-free:
// it runs once per delta on the steady-state ingest path.
func BenchmarkNextDelta(b *testing.B) {
	var payload []byte
	for i := 0; i < 64; i++ {
		payload = AppendDelta(payload, OpUpdate, []byte("12345|some customer name|2024-01-01\n"))
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rest := payload
		for len(rest) > 0 {
			_, _, r, err := NextDelta(rest, wire.FormatVartext)
			if err != nil {
				b.Fatal(err)
			}
			rest = r
		}
	}
}

// TestNextDeltaAllocFree is the CI alloc-regression gate for the delta
// framing hot path: NextDelta runs once per CDC record and must never
// allocate.
func TestNextDeltaAllocFree(t *testing.T) {
	var payload []byte
	for i := 0; i < 16; i++ {
		payload = AppendDelta(payload, OpUpdate, []byte("12345|some customer name|2024-01-01\n"))
	}
	allocs := testing.AllocsPerRun(10, func() {
		rest := payload
		for len(rest) > 0 {
			_, _, r, err := NextDelta(rest, wire.FormatVartext)
			if err != nil {
				t.Fatal(err)
			}
			rest = r
		}
	})
	if allocs != 0 {
		t.Errorf("NextDelta allocates %.1f per frame, want 0", allocs)
	}
}

// TestAppendDeltaAllocFree gates the encoding side: with capacity in dst,
// AppendDelta writes the op marker and record in place and never
// allocates.
func TestAppendDeltaAllocFree(t *testing.T) {
	rec := []byte("12345|some customer name|2024-01-01\n")
	dst := make([]byte, 0, 16*(len(rec)+1))
	allocs := testing.AllocsPerRun(10, func() {
		buf := dst[:0]
		for i := 0; i < 16; i++ {
			buf = AppendDelta(buf, OpUpdate, rec)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendDelta allocates %.1f per 16 deltas into a sized buffer, want 0", allocs)
	}
}
