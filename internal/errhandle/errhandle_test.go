package errhandle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// fakeTarget simulates a set-oriented engine over rows 1..n with a set of
// bad rows: applying a range fails if it contains any bad row, succeeds
// otherwise, and counts applied rows.
type fakeTarget struct {
	bad      map[int64]bool
	applied  map[int64]bool
	order    []int64 // applied rows, in application order, repeats included
	attempts int
}

func newFakeTarget(badRows ...int64) *fakeTarget {
	t := &fakeTarget{bad: map[int64]bool{}, applied: map[int64]bool{}}
	for _, r := range badRows {
		t.bad[r] = true
	}
	return t
}

func (f *fakeTarget) apply(_ context.Context, lo, hi int64) (int64, error) {
	f.attempts++
	for r := lo; r <= hi; r++ {
		if f.bad[r] {
			return 0, fmt.Errorf("bad tuple somewhere in chunk") // no row info!
		}
	}
	for r := lo; r <= hi; r++ {
		f.applied[r] = true
		f.order = append(f.order, r)
	}
	return hi - lo + 1, nil
}

func passThrough(err error) Classified {
	return Classified{Code: 2666, Field: "F", Msg: err.Error()}
}

type recorded struct {
	lo, hi int64
	c      Classified
}

func collect(recs *[]recorded) RecordFunc {
	return func(lo, hi int64, c Classified) error {
		*recs = append(*recs, recorded{lo, hi, c})
		return nil
	}
}

func TestIsolatesExactBadRows(t *testing.T) {
	ft := newFakeTarget(2, 3, 17)
	var recs []recorded
	h := New(Config{}, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, 20); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recorded %d errors: %+v", len(recs), recs)
	}
	got := map[int64]bool{}
	for _, r := range recs {
		if r.lo != r.hi {
			t.Errorf("block entry unexpected: %+v", r)
		}
		got[r.lo] = true
	}
	for _, want := range []int64{2, 3, 17} {
		if !got[want] {
			t.Errorf("row %d not recorded", want)
		}
	}
	// every good row applied exactly once
	for r := int64(1); r <= 20; r++ {
		if ft.bad[r] {
			if ft.applied[r] {
				t.Errorf("bad row %d applied", r)
			}
		} else if !ft.applied[r] {
			t.Errorf("good row %d not applied", r)
		}
	}
	st := h.Stats()
	if st.Activity != 17 || st.IndividualErrors != 3 || st.BlockErrors != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestNoErrorsSingleStatement(t *testing.T) {
	ft := newFakeTarget()
	var recs []recorded
	h := New(Config{}, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, 1000); err != nil {
		t.Fatal(err)
	}
	if ft.attempts != 1 {
		t.Errorf("attempts = %d, want 1 (bulk path)", ft.attempts)
	}
	if h.Stats().Activity != 1000 || len(recs) != 0 {
		t.Errorf("stats: %+v recs: %v", h.Stats(), recs)
	}
}

func TestMaxErrorsProducesBlockEntry(t *testing.T) {
	// Figure 6: rows 2,3 recorded individually; with max_errors=2 the chunk
	// (4,5) is recorded as a block and not split further.
	ft := newFakeTarget(2, 3, 4)
	var recs []recorded
	h := New(Config{MaxErrors: 2}, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, 5); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.IndividualErrors != 2 {
		t.Errorf("individual errors = %d", st.IndividualErrors)
	}
	if st.BlockErrors < 1 {
		t.Fatalf("no block entry: %+v", recs)
	}
	var blocks []recorded
	for _, r := range recs {
		if r.c.Code == CodeMaxErrors {
			blocks = append(blocks, r)
		}
	}
	if len(blocks) == 0 {
		t.Fatal("no CodeMaxErrors entry")
	}
	// rows covered by blocks must include row 4 (the third bad row)
	covered := false
	for _, b := range blocks {
		if b.lo <= 4 && 4 <= b.hi {
			covered = true
		}
	}
	if !covered {
		t.Errorf("row 4 not covered by block entries: %+v", blocks)
	}
}

func TestMaxRetriesStopsSplitting(t *testing.T) {
	ft := newFakeTarget(500)
	var recs []recorded
	h := New(Config{MaxRetries: 2}, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, 1024); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.IndividualErrors != 0 {
		t.Errorf("individual errors = %d, want 0 (depth-capped)", st.IndividualErrors)
	}
	if st.BlockErrors != 1 {
		t.Errorf("block errors = %d", st.BlockErrors)
	}
	if st.BlockedRows != 256 {
		t.Errorf("blocked rows = %d, want 256 (quarter range)", st.BlockedRows)
	}
	// attempts bounded by depth cap: 1 root + 2 + 4 at depth 2 max
	if ft.attempts > 7 {
		t.Errorf("attempts = %d, want <= 7", ft.attempts)
	}
}

func TestUniqueErrorsRouted(t *testing.T) {
	ft := newFakeTarget(3)
	classify := func(err error) Classified {
		return Classified{Code: 2794, Unique: true, Msg: err.Error()}
	}
	var recs []recorded
	h := New(Config{}, ft.apply, classify, collect(&recs))
	if err := h.Run(context.Background(), 1, 4); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !recs[0].c.Unique || recs[0].lo != 3 {
		t.Errorf("recs: %+v", recs)
	}
}

func TestFatalAborts(t *testing.T) {
	boom := errors.New("connection lost")
	apply := func(_ context.Context, lo, hi int64) (int64, error) { return 0, boom }
	classify := func(err error) Classified { return Classified{Fatal: true, Msg: err.Error()} }
	h := New(Config{}, apply, classify, func(lo, hi int64, c Classified) error { return nil })
	if err := h.Run(context.Background(), 1, 10); err == nil {
		t.Fatal("fatal error absorbed")
	}
}

func TestRecordFailurePropagates(t *testing.T) {
	ft := newFakeTarget(1)
	h := New(Config{}, ft.apply, passThrough, func(lo, hi int64, c Classified) error {
		return errors.New("error table write failed")
	})
	if err := h.Run(context.Background(), 1, 4); err == nil {
		t.Fatal("record failure absorbed")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ft := newFakeTarget(1)
	h := New(Config{}, ft.apply, passThrough, collect(&[]recorded{}))
	if err := h.Run(ctx, 1, 10); err == nil {
		t.Fatal("cancelled context ignored")
	}
}

func TestEmptyAndInvertedRange(t *testing.T) {
	ft := newFakeTarget()
	h := New(Config{}, ft.apply, passThrough, collect(&[]recorded{}))
	if err := h.Run(context.Background(), 5, 4); err != nil {
		t.Fatal(err)
	}
	if ft.attempts != 0 {
		t.Errorf("attempts on empty range: %d", ft.attempts)
	}
}

func TestAllRowsBad(t *testing.T) {
	var bad []int64
	for i := int64(1); i <= 16; i++ {
		bad = append(bad, i)
	}
	ft := newFakeTarget(bad...)
	var recs []recorded
	h := New(Config{}, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, 16); err != nil {
		t.Fatal(err)
	}
	if h.Stats().IndividualErrors != 16 || h.Stats().Activity != 0 {
		t.Errorf("stats: %+v", h.Stats())
	}
}

func TestPropertyExactIsolation(t *testing.T) {
	f := func(seed int64, nRaw, badRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int64(nRaw%100) + 1
		nBad := int(badRaw) % 10
		ft := newFakeTarget()
		for i := 0; i < nBad; i++ {
			ft.bad[r.Int63n(n)+1] = true
		}
		var recs []recorded
		h := New(Config{}, ft.apply, passThrough, collect(&recs))
		if err := h.Run(context.Background(), 1, n); err != nil {
			return false
		}
		// each bad row recorded exactly once, no good row recorded
		seen := map[int64]int{}
		for _, rec := range recs {
			if rec.lo != rec.hi {
				return false
			}
			seen[rec.lo]++
		}
		for row := int64(1); row <= n; row++ {
			if ft.bad[row] {
				if seen[row] != 1 || ft.applied[row] {
					return false
				}
			} else {
				if seen[row] != 0 || !ft.applied[row] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAttemptsLogarithmic(t *testing.T) {
	// One bad row in n rows needs O(log n) attempts.
	for _, n := range []int64{64, 1024, 65536} {
		ft := newFakeTarget(n / 2)
		h := New(Config{}, ft.apply, passThrough, collect(&[]recorded{}))
		if err := h.Run(context.Background(), 1, n); err != nil {
			t.Fatal(err)
		}
		limit := 0
		for x := n; x > 0; x >>= 1 {
			limit += 2
		}
		if ft.attempts > limit+2 {
			t.Errorf("n=%d: %d attempts exceeds ~2*log2(n)=%d", n, ft.attempts, limit)
		}
	}
}

func TestObserveReceivesEveryAttempt(t *testing.T) {
	ft := newFakeTarget(3)
	var recs []recorded
	type attempt struct {
		depth  int
		lo, hi int64
		failed bool
	}
	var attempts []attempt
	h := New(Config{
		Observe: func(depth int, lo, hi int64, _ time.Duration, err error) {
			attempts = append(attempts, attempt{depth, lo, hi, err != nil})
		},
	}, ft.apply, passThrough, collect(&recs))
	if err := h.Run(context.Background(), 1, 4); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if int64(len(attempts)) != st.Attempts {
		t.Fatalf("observer saw %d attempts, stats counted %d", len(attempts), st.Attempts)
	}
	if attempts[0].depth != 0 || attempts[0].lo != 1 || attempts[0].hi != 4 || !attempts[0].failed {
		t.Errorf("first attempt = %+v, want failing root range 1..4 at depth 0", attempts[0])
	}
	maxDepth := 0
	for _, a := range attempts {
		if a.depth > maxDepth {
			maxDepth = a.depth
		}
		if a.lo == 3 && a.hi == 3 && !a.failed {
			t.Error("isolated bad row 3 observed as success")
		}
	}
	if maxDepth != st.MaxDepth {
		t.Errorf("observer max depth = %d, stats say %d", maxDepth, st.MaxDepth)
	}
}
