// Package errhandle implements the adaptive error handling of §7.
//
// The CDW applies DML set-oriented: a failing statement aborts as a whole
// and does not say which row was at fault. Legacy ETL semantics demand the
// opposite — load everything loadable, record each bad tuple in an error
// table. The adaptive mechanism bridges the two by recursively re-applying
// the DML on smaller __seq ranges: a failing range is split in half until
// either a single tuple is isolated (recorded individually) or a budget is
// exhausted (the remaining range is recorded as a block, Figure 6).
//
// Two user knobs bound the work, exactly as in the paper: MaxErrors caps the
// number of individually-recorded errors before the retry logic stops
// isolating, and MaxRetries caps how many times any one input chunk is
// split.
//
// Bisection is blind because the CDW does not name the failing row. A caller
// that can predict which rows fail supplies Config.Locate: the first time a
// Run's range fails, the handler asks it once and applies the range as
// ordered pieces — each predicted row alone, each gap between them as a
// range — instead of halving it. Every piece still goes through the same
// apply and record path, so a wrong prediction costs statements, never
// correctness: a gap that fails anyway is bisected as before.
package errhandle

import (
	"context"
	"fmt"
	"math/bits"
	"time"
)

// Classified is the verdict of the error classifier on a failed range
// application.
type Classified struct {
	Code   int
	Field  string
	Msg    string
	Unique bool // record in the uniqueness-violation table instead of ET
	Fatal  bool // infrastructure failure: abort the job instead of retrying
}

// Config bounds the adaptive retry logic.
type Config struct {
	// MaxErrors is the maximum number of individual errors to record before
	// the retry logic stops splitting. Zero means DefaultMaxErrors.
	MaxErrors int
	// MaxRetries is the maximum number of times one input chunk is split
	// before the remaining range is recorded as a block. Zero means
	// DefaultMaxRetries.
	MaxRetries int
	// Observe, when non-nil, receives every DML statement attempt: the
	// split depth the range sits at, the rows it covers, the statement
	// latency, and the error (nil on success). The virtualizer wires this
	// into its DML-latency histogram and the per-job span timeline.
	Observe func(depth int, lo, hi int64, d time.Duration, err error)
	// Locate, when non-nil, is asked once per Run, when its range first
	// fails, for the sorted __seq values in lo..hi it predicts will fail.
	// A nil or empty answer, an error, or an answer that does not fit the
	// budgets (see locate) means bisecting as if Locate were nil.
	Locate func(ctx context.Context, lo, hi int64) ([]int64, error)
}

// Default budgets applied when Config fields are zero.
const (
	DefaultMaxErrors  = 1000
	DefaultMaxRetries = 64
)

// ApplyFunc applies the job's DML to staged rows lo..hi (inclusive) and
// returns the statement's activity count.
type ApplyFunc func(ctx context.Context, lo, hi int64) (int64, error)

// ClassifyFunc decides what a failure means.
type ClassifyFunc func(err error) Classified

// RecordFunc persists one error-table entry covering rows lo..hi. For an
// individual error lo == hi; for a block error lo < hi and c.Code is
// CodeMaxErrors-style.
type RecordFunc func(lo, hi int64, c Classified) error

// Stats reports what one adaptive application did.
type Stats struct {
	Activity         int64 // rows affected by successful applications
	Attempts         int64 // DML statements executed (cost driver of Figure 11)
	IndividualErrors int64 // tuples recorded one-by-one
	BlockErrors      int64 // range entries recorded after budget exhaustion
	BlockedRows      int64 // rows covered by block entries
	Splits           int64 // failing ranges split in half or at located rows
	MaxDepth         int   // deepest split level reached
	Locates          int64 // Locate calls
	LocateMisses     int64 // Locate calls that errored, plus located gaps that failed
}

// Handler drives adaptive application for one job. Not safe for concurrent
// use; the application phase is sequential per job.
type Handler struct {
	cfg      Config
	apply    ApplyFunc
	classify ClassifyFunc
	record   RecordFunc

	stats Stats
}

// New builds a handler.
func New(cfg Config, apply ApplyFunc, classify ClassifyFunc, record RecordFunc) *Handler {
	if cfg.MaxErrors <= 0 {
		cfg.MaxErrors = DefaultMaxErrors
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	return &Handler{cfg: cfg, apply: apply, classify: classify, record: record}
}

// Stats returns the accumulated statistics.
func (h *Handler) Stats() Stats { return h.stats }

// Run applies the DML to rows lo..hi inclusive with adaptive error handling.
// It returns a non-nil error only for fatal failures (classifier verdict or
// error-table write failure); data errors are recorded and absorbed.
func (h *Handler) Run(ctx context.Context, lo, hi int64) error {
	if lo > hi {
		return nil
	}
	return h.run(ctx, lo, hi, 0)
}

func (h *Handler) run(ctx context.Context, lo, hi int64, depth int) error {
	c, failed, err := h.attempt(ctx, lo, hi, depth)
	if err != nil || !failed {
		return err
	}
	return h.isolate(ctx, lo, hi, depth, c)
}

// attempt applies rows lo..hi once and reports whether the statement failed
// with a data error, classified as c.
func (h *Handler) attempt(ctx context.Context, lo, hi int64, depth int) (c Classified, failed bool, err error) {
	if err := ctx.Err(); err != nil {
		return c, false, err
	}
	h.stats.Attempts++
	if depth > h.stats.MaxDepth {
		h.stats.MaxDepth = depth
	}
	start := time.Now()
	n, err := h.apply(ctx, lo, hi)
	if h.cfg.Observe != nil {
		h.cfg.Observe(depth, lo, hi, time.Since(start), err)
	}
	if err == nil {
		h.stats.Activity += n
		return c, false, nil
	}
	if c = h.classify(err); c.Fatal {
		return c, true, fmt.Errorf("errhandle: fatal failure applying rows %d-%d: %w", lo, hi, err)
	}
	return c, true, nil
}

// isolate handles the failure c of rows lo..hi, applied at depth.
func (h *Handler) isolate(ctx context.Context, lo, hi int64, depth int, c Classified) error {
	// Single tuple isolated: record it individually.
	if lo == hi {
		if h.stats.IndividualErrors >= int64(h.cfg.MaxErrors) {
			return h.recordBlock(lo, hi, c)
		}
		h.stats.IndividualErrors++
		return h.record(lo, hi, c)
	}

	// Budgets exhausted: record the remaining range as a block.
	if h.stats.IndividualErrors >= int64(h.cfg.MaxErrors) || depth >= h.cfg.MaxRetries {
		return h.recordBlock(lo, hi, c)
	}

	h.stats.Splits++
	if depth == 0 && h.cfg.Locate != nil {
		if pieces := h.locate(ctx, lo, hi); pieces != nil {
			return h.runPieces(ctx, pieces, depth+1)
		}
	}
	mid := lo + (hi-lo)/2
	if err := h.run(ctx, lo, mid, depth+1); err != nil {
		return err
	}
	return h.run(ctx, mid+1, hi, depth+1)
}

// piece is one part of a located split: a predicted bad row, or a gap of
// rows predicted clean.
type piece struct {
	lo, hi  int64
	suspect bool
}

// locate asks cfg.Locate which rows of the failing range lo..hi will fail
// and returns the pieces to apply in order, or nil to bisect. The answer is
// used only if it fits both budgets, so that a located split never records
// a block that bisection would not have: the suspects fit the individual
// errors MaxErrors still allows, and every gap could be bisected down to
// single rows before a failing part of it reached depth MaxRetries.
func (h *Handler) locate(ctx context.Context, lo, hi int64) []piece {
	h.stats.Locates++
	seqs, err := h.cfg.Locate(ctx, lo, hi)
	if err != nil {
		h.stats.LocateMisses++
		return nil
	}
	if len(seqs) == 0 || int64(len(seqs)) > int64(h.cfg.MaxErrors)-h.stats.IndividualErrors {
		return nil
	}
	pieces := make([]piece, 0, 2*len(seqs)+1)
	next := lo
	for _, s := range seqs {
		if s < next || s > hi {
			return nil // unsorted, repeated or out of range: not an answer
		}
		if s > next {
			pieces = append(pieces, piece{lo: next, hi: s - 1})
		}
		pieces = append(pieces, piece{lo: s, hi: s, suspect: true})
		next = s + 1
	}
	if next <= hi {
		pieces = append(pieces, piece{lo: next, hi: hi})
	}
	for _, p := range pieces {
		// A gap of m rows bisected from depth 1 has failing multi-row parts
		// down to depth ceil(log2 m).
		if !p.suspect && bits.Len64(uint64(p.hi-p.lo)) >= h.cfg.MaxRetries {
			return nil
		}
	}
	return pieces
}

// runPieces applies a located split in ascending row order. A suspect that
// fails is recorded like any isolated row; a gap that fails is a miss and is
// bisected without asking Locate again.
func (h *Handler) runPieces(ctx context.Context, pieces []piece, depth int) error {
	for _, p := range pieces {
		c, failed, err := h.attempt(ctx, p.lo, p.hi, depth)
		if err != nil {
			return err
		}
		if !failed {
			continue
		}
		if !p.suspect {
			h.stats.LocateMisses++
		}
		if err := h.isolate(ctx, p.lo, p.hi, depth, c); err != nil {
			return err
		}
	}
	return nil
}

func (h *Handler) recordBlock(lo, hi int64, c Classified) error {
	h.stats.BlockErrors++
	h.stats.BlockedRows += hi - lo + 1
	block := c
	block.Code = CodeMaxErrors
	block.Unique = false
	if lo == hi {
		block.Msg = fmt.Sprintf("max number of errors reached, row %d not loaded: %s", lo, c.Msg)
	} else {
		block.Msg = fmt.Sprintf("max number of errors reached, rows (%d, %d) include one or more errors and will not be further split", lo, hi)
	}
	return h.record(lo, hi, block)
}

// CodeMaxErrors marks block entries, mirroring the 9057 code of Figure 6.
const CodeMaxErrors = 9057
