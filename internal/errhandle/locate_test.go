package errhandle

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// locatorFor answers Locate with the rows of answer inside the asked range,
// or with an error when fail is set.
func locatorFor(answer []int64, fail bool) func(context.Context, int64, int64) ([]int64, error) {
	return func(_ context.Context, lo, hi int64) ([]int64, error) {
		if fail {
			return nil, errors.New("probe failed")
		}
		var out []int64
		for _, r := range answer {
			if r >= lo && r <= hi {
				out = append(out, r)
			}
		}
		return out, nil
	}
}

// runHandler applies rows 1..n of a fake target with the given bad rows.
func runHandler(t *testing.T, cfg Config, n int64, bad []int64) (*fakeTarget, []recorded, Stats) {
	t.Helper()
	ft := newFakeTarget(bad...)
	var recs []recorded
	h := New(cfg, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, n); err != nil {
		t.Fatal(err)
	}
	return ft, recs, h.Stats()
}

// spans reduces records to (lo, hi, code).
func spans(recs []recorded) [][3]int64 {
	out := make([][3]int64, len(recs))
	for i, r := range recs {
		out[i] = [3]int64{r.lo, r.hi, int64(r.c.Code)}
	}
	return out
}

func TestLocateExactAnswer(t *testing.T) {
	bad := []int64{5, 9}
	ft, recs, st := runHandler(t, Config{Locate: locatorFor(bad, false)}, 16, bad)
	// the failing root, then 1..4, 5, 6..8, 9, 10..16
	if ft.attempts != 6 || st.Attempts != 6 {
		t.Errorf("attempts = %d (stats %d), want 6", ft.attempts, st.Attempts)
	}
	if want := [][3]int64{{5, 5, 2666}, {9, 9, 2666}}; !reflect.DeepEqual(spans(recs), want) {
		t.Errorf("records %v, want %v", spans(recs), want)
	}
	if st.Locates != 1 || st.LocateMisses != 0 || st.Splits != 1 || st.MaxDepth != 1 || st.Activity != 14 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLocateMissedGapBisects(t *testing.T) {
	bad := []int64{5, 12}
	_, refRecs, _ := runHandler(t, Config{}, 16, bad)
	ft, recs, st := runHandler(t, Config{Locate: locatorFor([]int64{5}, false)}, 16, bad)
	if !reflect.DeepEqual(spans(recs), spans(refRecs)) {
		t.Errorf("records %v, reference %v", spans(recs), spans(refRecs))
	}
	if st.Locates != 1 || st.LocateMisses != 1 {
		t.Errorf("stats: %+v, want one locate and one missed gap", st)
	}
	if !slices.Equal(ft.order, []int64{1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16}) {
		t.Errorf("applied %v", ft.order)
	}
}

// TestLocateFallsBackToBisection: an answer the handler cannot use costs
// exactly what bisection costs, plus the probe.
func TestLocateFallsBackToBisection(t *testing.T) {
	bad := []int64{3, 4, 11}
	answer := func(seqs ...int64) func(context.Context, int64, int64) ([]int64, error) {
		return func(context.Context, int64, int64) ([]int64, error) { return seqs, nil }
	}
	for _, tc := range []struct {
		name       string
		maxRetries int
		locate     func(context.Context, int64, int64) ([]int64, error)
		misses     int64
	}{
		{"error", 0, locatorFor(bad, true), 1},
		{"empty", 0, answer(), 0},
		{"over MaxErrors", 0, locatorFor(bad, false), 0},
		{"unsorted", 0, answer(4, 3), 0},
		{"repeated", 0, answer(3, 3), 0},
		{"out of range", 0, answer(17), 0},
		{"gap too deep for MaxRetries", 2, answer(3), 0},
	} {
		base := Config{MaxErrors: 2, MaxRetries: tc.maxRetries}
		ref, refRecs, refSt := runHandler(t, base, 16, bad)
		cfg := base
		cfg.Locate = tc.locate
		ft, recs, st := runHandler(t, cfg, 16, bad)
		if !reflect.DeepEqual(spans(recs), spans(refRecs)) || !slices.Equal(ft.order, ref.order) {
			t.Errorf("%s: records %v applied %v, reference %v applied %v", tc.name, spans(recs), ft.order, spans(refRecs), ref.order)
		}
		if st.Attempts != refSt.Attempts || st.Splits != refSt.Splits || st.Locates != 1 || st.LocateMisses != tc.misses {
			t.Errorf("%s: stats %+v, reference %+v, want 1 locate and %d misses", tc.name, st, refSt, tc.misses)
		}
	}
}

func TestLocateNotAskedOnSuccess(t *testing.T) {
	asked := 0
	locate := func(context.Context, int64, int64) ([]int64, error) { asked++; return nil, nil }
	ft, _, st := runHandler(t, Config{Locate: locate}, 100, nil)
	if asked != 0 || st.Locates != 0 || ft.attempts != 1 {
		t.Errorf("clean range: %d locates, %d attempts, want 0 and 1", asked, ft.attempts)
	}
	// a single failing row has nothing to locate
	if _, _, st := runHandler(t, Config{Locate: locate}, 1, []int64{1}); asked != 0 || st.Locates != 0 {
		t.Errorf("single row: %d locates, want 0", asked)
	}
}

// locateCase is one decoded FuzzLocateDifferential input.
type locateCase struct {
	n                     int64
	bad, answer           []int64 // sorted
	fail                  bool    // Locate returns an error
	maxErrors, maxRetries int     // zero means the package default
}

// decodeLocate turns fuzz bytes into a case. Missing bytes read as zero.
// Header: rows, MaxErrors, MaxRetries, answer mode (error, exact, noisy,
// noisy); then three 8-byte bitmaps over rows 1..64: bad rows, false
// positives, false negatives.
func decodeLocate(data []byte) *locateCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := &locateCase{n: int64(next()%64) + 1}
	c.maxErrors = int(next()) % int(c.n+2)
	c.maxRetries = int(next()) % 9
	mode := next() % 4
	bitmap := func() uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(next()) << (8 * i)
		}
		return v
	}
	bad, fp, fn := bitmap(), bitmap(), bitmap()
	answer := bad
	switch mode {
	case 0:
		c.fail = true
	case 1:
	default:
		answer = (bad | fp) &^ fn
	}
	for r := int64(1); r <= c.n; r++ {
		bit := uint64(1) << (r - 1)
		if bad&bit != 0 {
			c.bad = append(c.bad, r)
		}
		if answer&bit != 0 {
			c.answer = append(c.answer, r)
		}
	}
	return c
}

// FuzzLocateDifferential checks located splits against plain bisection: up
// to 64 rows with a bad-row bitmap, a Locate answer that is the bad set, the
// bad set with false positives and negatives, or an error, and random
// MaxErrors/MaxRetries. The reference is the same handler without Locate.
// Every row must be applied or recorded exactly once and individual records
// must stay within MaxErrors. When the reference records no block, the
// located run must record the same (lo, hi, code) entries and apply the
// same rows, in the same order. With an exact answer and budgets that fit
// it, the cost is the failing first statement plus one statement per
// suspect and per gap around them: at most 2·|bad| + 2. The committed
// corpus runs in every `go test`.
func FuzzLocateDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeLocate(data)
		base := Config{MaxErrors: c.maxErrors, MaxRetries: c.maxRetries}
		ref, refRecs, _ := runHandler(t, base, c.n, c.bad)
		located := base
		located.Locate = locatorFor(c.answer, c.fail)
		got, recs, st := runHandler(t, located, c.n, c.bad)

		seen := make([]int, c.n+1)
		for _, r := range got.order {
			seen[r]++
		}
		var individual int64
		for _, rec := range recs {
			for r := rec.lo; r <= rec.hi; r++ {
				seen[r]++
			}
			if rec.c.Code != CodeMaxErrors {
				individual++
			}
		}
		for r := int64(1); r <= c.n; r++ {
			if seen[r] != 1 {
				t.Fatalf("row %d applied or recorded %d times; records %v, applied %v", r, seen[r], spans(recs), got.order)
			}
		}
		maxErrors, maxRetries := c.maxErrors, c.maxRetries
		if maxErrors == 0 {
			maxErrors = DefaultMaxErrors
		}
		if maxRetries == 0 {
			maxRetries = DefaultMaxRetries
		}
		if individual > int64(maxErrors) || individual != st.IndividualErrors {
			t.Fatalf("%d individual records (stats %d), MaxErrors %d", individual, st.IndividualErrors, maxErrors)
		}
		if st.Locates > 1 || (len(c.bad) == 0 && st.Locates != 0) {
			t.Fatalf("Locate asked %d times with %d bad rows", st.Locates, len(c.bad))
		}

		refBlock := slices.ContainsFunc(refRecs, func(r recorded) bool { return r.c.Code == CodeMaxErrors })
		if !refBlock {
			if !reflect.DeepEqual(spans(recs), spans(refRecs)) {
				t.Fatalf("records %v, reference %v", spans(recs), spans(refRecs))
			}
			if !slices.Equal(got.order, ref.order) {
				t.Fatalf("applied %v, reference %v", got.order, ref.order)
			}
		}

		exact := !c.fail && slices.Equal(c.answer, c.bad)
		if exact && len(c.bad) <= maxErrors && bits.Len64(uint64(c.n-1)) < maxRetries {
			if got.attempts > 2*len(c.bad)+2 || st.LocateMisses != 0 {
				t.Fatalf("exact answer for %d bad rows: %d attempts, %d misses", len(c.bad), got.attempts, st.LocateMisses)
			}
		}
	})
}
