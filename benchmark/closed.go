package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"etlvirt/internal/credit"
)

// opRecord is one client operation of a measured window.
type opRecord struct {
	ID         uint64 // root span and operation identifier; 0 when untraced
	Client     int
	Start, End time.Time
	Rows       int64
	Err        string // why the op failed or its output check did; "" = ok
}

// windowResult is what one measured window produced.
type windowResult struct {
	Start time.Time
	Wall  time.Duration
	CPU   time.Duration
	// Stmts, CreditAcquires and CreditWaits are the engine's statement count
	// and the node's credit-pool counters over the timed region.
	Stmts, CreditAcquires, CreditWaits int64
	Ops                                []opRecord
	// LatencyMS is the per-op latency sample the percentiles come from; for
	// closed loops it is each op's wall time, for cdc_stream the freshness of
	// each delta of phase hi.
	LatencyMS []float64
	Rows      int64 // rows completed in the window
	// SatRows and SatDur are the deltas committed during cdc_stream's
	// closed-loop phase and that phase's length; zero for closed loops, whose
	// throughput is Rows over Wall.
	SatRows   int64
	SatDur    time.Duration
	Attempted int64
	Failed    int64
	Failures  []string // first few failure messages, for the operator

	// ClientAcq is the summed client-observed acquisition time, for
	// etlclient.acq_share.
	ClientAcq time.Duration
	// Gen carries the load generator's own validity numbers and what the
	// stream acks told it.
	Gen map[string]float64
	// StreamClient maps a server-side stream id to the client (stream index)
	// that opened it, for attributing the stream's store calls.
	StreamClient map[uint64]int
}

const maxFailureMessages = 5

func (w *windowResult) fail(msg string) {
	w.Failed++
	if len(w.Failures) < maxFailureMessages {
		w.Failures = append(w.Failures, msg)
	}
}

// opOutcome is what one closed-loop operation reports back to the driver.
type opOutcome struct {
	Rows      int64
	ClientAcq time.Duration
}

// closedLoop drives a fixed number of clients, each issuing its next
// operation only after the previous one completed and was checked.
type closedLoop struct {
	Stack   *stack
	Clients int
	// Prepare resets the client's tables; Verify checks the op's outputs
	// against the generator's expectation. Both run outside the timed op.
	Prepare func(client int) error
	Op      func(client int) (opOutcome, error)
	Verify  func(client int) error
}

// run issues operations for d (or until ctx is cancelled), then lets in-flight
// ones finish. rec may be nil (untraced).
func (cl closedLoop) run(ctx context.Context, d time.Duration, rec *recorder) (*windowResult, error) {
	res := &windowResult{}
	timed, err := beginTimed(cl.Stack, rec)
	if err != nil {
		return nil, err
	}
	deadline := timed.start.Add(d)

	var mu sync.Mutex
	var wg sync.WaitGroup
	setupErrs := make([]error, cl.Clients)
	for c := 0; c < cl.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if err := cl.Prepare(c); err != nil {
					setupErrs[c] = fmt.Errorf("client %d: resetting tables: %w", c, err)
					return
				}
				op := opRecord{ID: rec.newID(), Client: c, Start: time.Now()}
				out, err := cl.Op(c)
				op.End = time.Now()
				op.Rows = out.Rows
				if err != nil {
					op.Err = err.Error()
				} else if err := cl.Verify(c); err != nil {
					op.Err = "output check: " + err.Error()
				}
				rec.add(op.ID, 0, op.ID, "op", op.Start, op.End)
				mu.Lock()
				res.Ops = append(res.Ops, op)
				res.ClientAcq += out.ClientAcq
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := timed.end(res); err != nil {
		return nil, err
	}
	for _, err := range setupErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, op := range res.Ops {
		res.Attempted++
		if op.Err != "" {
			res.fail(fmt.Sprintf("client %d: %s", op.Client, op.Err))
			continue
		}
		res.Rows += op.Rows
		res.LatencyMS = append(res.LatencyMS, ms(op.End.Sub(op.Start)))
	}
	return res, nil
}

// timedRegion brackets the timed part of a window: it snapshots the clocks and
// counters the metrics are differences of, and arms the live seams when the
// window is traced, so that untimed preparation (preloads, resets before the
// first op) is neither timed nor traced.
type timedRegion struct {
	st       *stack
	rec      *recorder
	start    time.Time
	cpu0     time.Duration
	stmts0   int64
	credits0 credit.Stats
}

func beginTimed(st *stack, rec *recorder) (*timedRegion, error) {
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t := &timedRegion{st: st, rec: rec, cpu0: cpu0, stmts0: st.eng.StmtCount(), credits0: st.node.Credits()}
	if rec != nil {
		st.live.arm(rec)
	}
	t.start = time.Now()
	return t, nil
}

func (t *timedRegion) end(res *windowResult) error {
	res.Start = t.start
	res.Wall = time.Since(t.start)
	if t.rec != nil {
		t.st.live.disarm()
	}
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	res.CPU = cpu1 - t.cpu0
	credits := t.st.node.Credits()
	res.Stmts = t.st.eng.StmtCount() - t.stmts0
	res.CreditAcquires = credits.Acquires - t.credits0.Acquires
	res.CreditWaits = credits.Waits - t.credits0.Waits
	return nil
}
