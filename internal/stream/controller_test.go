package stream

import (
	"testing"
	"time"
)

// simulate runs the controller closed-loop against a synthetic latency
// model latency(rows) = base + perRow*rows, spent in the apply stage, and
// returns the batch-size trajectory.
func simulate(c *Controller, base, perRow time.Duration, steps int) []int {
	sizes := make([]int, 0, steps)
	batch := c.Hint().BatchRows
	for i := 0; i < steps; i++ {
		lat := base + time.Duration(batch)*perRow
		d := c.ObserveStages(batch, batch*100, lat, Stages{Apply: lat})
		batch = d.BatchRows
		sizes = append(sizes, batch)
	}
	return sizes
}

func TestControllerConvergence(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		base     time.Duration
		perRow   time.Duration
		wantLo   int // acceptable converged-batch band
		wantHi   int
		maxDrift int // allowed batch movement across the settled tail
	}{
		{
			// ideal batch = (2s - 100ms) / 2ms = 950 rows, far above the
			// initial 64
			name: "converges_from_below",
			cfg:  Config{Target: 2 * time.Second},
			base: 100 * time.Millisecond, perRow: 2 * time.Millisecond,
			wantLo: 700, wantHi: 1200, maxDrift: 0,
		},
		{
			// ideal batch = (500ms - 50ms) / 15ms = 30 rows, below the
			// initial 64
			name: "converges_from_above",
			cfg:  Config{Target: 500 * time.Millisecond},
			base: 50 * time.Millisecond, perRow: 15 * time.Millisecond,
			wantLo: 22, wantHi: 40, maxDrift: 0,
		},
		{
			// ideal batch = (500ms - 50ms) / 1ms = 450 rows
			name: "tighter_target",
			cfg:  Config{Target: 500 * time.Millisecond},
			base: 50 * time.Millisecond, perRow: time.Millisecond,
			wantLo: 330, wantHi: 550, maxDrift: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(tc.cfg)
			sizes := simulate(c, tc.base, tc.perRow, 200)
			final := sizes[len(sizes)-1]
			if final < tc.wantLo || final > tc.wantHi {
				t.Fatalf("converged batch = %d, want in [%d, %d]\ntrajectory tail: %v",
					final, tc.wantLo, tc.wantHi, sizes[len(sizes)-10:])
			}
			// No oscillation: the settled tail must not keep moving.
			tail := sizes[len(sizes)-50:]
			lo, hi := tail[0], tail[0]
			for _, s := range tail {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			if hi-lo > tc.maxDrift {
				t.Fatalf("batch still oscillating in settled tail: range [%d, %d], want drift <= %d",
					lo, hi, tc.maxDrift)
			}
		})
	}
}

func TestControllerClamps(t *testing.T) {
	t.Run("ceiling", func(t *testing.T) {
		// A plant so fast the ideal batch exceeds MaxBatch: the hint must
		// pin at the ceiling and then hold, not overflow past it.
		c := NewController(Config{Target: 10 * time.Second, MinBatch: 16, MaxBatch: 256})
		sizes := simulate(c, time.Millisecond, time.Microsecond, 100)
		for i, s := range sizes {
			if s > 256 {
				t.Fatalf("step %d: batch %d exceeds ceiling 256", i, s)
			}
		}
		if final := sizes[len(sizes)-1]; final != 256 {
			t.Fatalf("final batch = %d, want pinned at ceiling 256", final)
		}
	})
	t.Run("floor", func(t *testing.T) {
		// A plant so slow even the minimum batch misses the target: the
		// hint must pin at the floor, not collapse to zero.
		c := NewController(Config{Target: 10 * time.Millisecond, MinBatch: 16, MaxBatch: 4096})
		sizes := simulate(c, 50*time.Millisecond, time.Millisecond, 100)
		for i, s := range sizes {
			if s < 16 {
				t.Fatalf("step %d: batch %d below floor 16", i, s)
			}
		}
		if final := sizes[len(sizes)-1]; final != 16 {
			t.Fatalf("final batch = %d, want pinned at floor 16", final)
		}
	})
	t.Run("pinned_counts_as_hold", func(t *testing.T) {
		c := NewController(Config{Target: 10 * time.Millisecond, MinBatch: 16, MaxBatch: 64})
		simulate(c, 50*time.Millisecond, time.Millisecond, 20) // drive to the floor
		// way over target, already at the floor
		d := c.ObserveStages(16, 1600, time.Second, Stages{Apply: time.Second})
		if d.Action != ActionHold || d.BatchRows != 16 {
			t.Fatalf("clamped decision = %v at %d, want hold at 16", d.Action, d.BatchRows)
		}
	})
}

func TestControllerStepBounds(t *testing.T) {
	// One catastrophic outlier must not move the batch by more than the
	// per-step ratio clamp. A first observation seeds the EWMA outright, so
	// nothing damps it.
	c := NewController(Config{Target: 2 * time.Second})
	d := c.ObserveStages(64, 6400, 200*time.Second, Stages{Apply: 200 * time.Second})
	if d.Action != ActionShrink || d.BatchRows < 32 {
		t.Fatalf("single outlier: %v to %d, want shrink to >= 32 (half)", d.Action, d.BatchRows)
	}
	c = NewController(Config{Target: 2 * time.Second})
	d = c.ObserveStages(64, 6400, time.Nanosecond, Stages{Apply: time.Nanosecond})
	if d.Action != ActionGrow || d.BatchRows > 96 {
		t.Fatalf("single fast sample: %v to %d, want grow to <= 96 (1.5x)", d.Action, d.BatchRows)
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(Config{})
	if c.Target() != 2*time.Second {
		t.Fatalf("default target = %v", c.Target())
	}
	d := c.Hint()
	if d.BatchRows != 64 {
		t.Fatalf("default initial batch = %d, want 64", d.BatchRows)
	}
	// The initial batch is clamped into [MinBatch, MaxBatch].
	c = NewController(Config{MinBatch: 100, MaxBatch: 200})
	if got := c.Hint().BatchRows; got != 100 {
		t.Fatalf("initial batch not clamped to the floor: %d", got)
	}
	c = NewController(Config{MinBatch: 8, MaxBatch: 32})
	if got := c.Hint().BatchRows; got != 32 {
		t.Fatalf("initial batch not clamped to the ceiling: %d", got)
	}
}

// commitStages is a per-stage breakdown of a 1.9s commit, the shape the
// streaming job hands the controller on every commit.
var commitStages = Stages{
	Spool:      100 * time.Millisecond,
	Upload:     300 * time.Millisecond,
	Copy:       500 * time.Millisecond,
	Apply:      900 * time.Millisecond,
	Checkpoint: 100 * time.Millisecond,
}

// BenchmarkControllerObserve pins the steady-state controller step, with
// its per-stage attribution, as allocation-free: it runs once per committed
// micro-batch and must not put the allocator on the commit path.
func BenchmarkControllerObserve(b *testing.B) {
	c := NewController(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveStages(512, 512*120, 1900*time.Millisecond, commitStages)
	}
}

// TestControllerObserveAllocFree is the CI alloc-regression gate for the
// controller step: ObserveStages runs once per committed micro-batch on the
// streaming commit path and must never allocate.
func TestControllerObserveAllocFree(t *testing.T) {
	c := NewController(Config{})
	allocs := testing.AllocsPerRun(100, func() {
		c.ObserveStages(512, 512*120, 1900*time.Millisecond, commitStages)
		c.ObserveStages(512, 512*120, 2100*time.Millisecond, commitStages)
	})
	if allocs != 0 {
		t.Errorf("ObserveStages allocates %.1f per call pair, want 0", allocs)
	}
}

func TestObserveStagesAttribution(t *testing.T) {
	c := NewController(Config{Target: 2 * time.Second})
	// Before any stage breakdown: no attribution.
	d := c.ObserveStages(100, 10000, 500*time.Millisecond, Stages{})
	if d.Dominant != "" {
		t.Errorf("dominant %q before any stage observation", d.Dominant)
	}
	if c.StageEWMA() != nil {
		t.Error("StageEWMA non-nil before any stage observation")
	}
	// COPY dominates this batch.
	d = c.ObserveStages(100, 10000, 500*time.Millisecond, Stages{
		Spool:  10 * time.Millisecond,
		Upload: 50 * time.Millisecond,
		Copy:   300 * time.Millisecond,
		Apply:  100 * time.Millisecond,
	})
	if d.Dominant != "copy" {
		t.Errorf("dominant %q, want copy", d.Dominant)
	}
	ew := c.StageEWMA()
	if ew == nil || ew["copy"] != 300*time.Millisecond {
		t.Errorf("stage EWMA seed: %v", ew)
	}
	// Shift the bottleneck to apply; EWMA needs a few batches to cross over.
	for i := 0; i < 20; i++ {
		d = c.ObserveStages(100, 10000, 500*time.Millisecond, Stages{
			Spool: 10 * time.Millisecond,
			Copy:  50 * time.Millisecond,
			Apply: 400 * time.Millisecond,
		})
	}
	if d.Dominant != "apply" {
		t.Errorf("dominant %q after shift, want apply", d.Dominant)
	}
	// A zero Stages observation keeps the last attribution.
	d = c.ObserveStages(100, 10000, 500*time.Millisecond, Stages{})
	if d.Dominant != "apply" {
		t.Errorf("dominant %q after a zero breakdown, want apply", d.Dominant)
	}
}

func TestObserveStagesZeroRowsStillAttributes(t *testing.T) {
	c := NewController(Config{})
	d := c.ObserveStages(0, 0, 0, Stages{Checkpoint: time.Millisecond})
	if d.Dominant != "checkpoint" {
		t.Errorf("dominant %q, want checkpoint", d.Dominant)
	}
	if d.Action != ActionHold {
		t.Errorf("action %v, want hold", d.Action)
	}
}
