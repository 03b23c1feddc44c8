package stream

import (
	"testing"
	"time"
)

// simulate runs the controller closed-loop against a synthetic latency
// model latency(rows) = base + perRow*rows and returns the batch-size
// trajectory.
func simulate(c *Controller, base, perRow time.Duration, steps int) []int {
	sizes := make([]int, 0, steps)
	batch := c.Hint().BatchRows
	for i := 0; i < steps; i++ {
		lat := base + time.Duration(batch)*perRow
		d := c.Observe(batch, batch*100, lat)
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
			// ideal batch = (2s - 100ms) / 2ms = 950 rows
			name: "converges_from_below",
			cfg:  Config{Target: 2 * time.Second, InitialBatch: 64},
			base: 100 * time.Millisecond, perRow: 2 * time.Millisecond,
			wantLo: 700, wantHi: 1200, maxDrift: 0,
		},
		{
			// same plant, starting far above the ideal batch
			name: "converges_from_above",
			cfg:  Config{Target: 2 * time.Second, InitialBatch: 8000},
			base: 100 * time.Millisecond, perRow: 2 * time.Millisecond,
			wantLo: 700, wantHi: 1200, maxDrift: 0,
		},
		{
			// ideal batch = (500ms - 50ms) / 1ms = 450 rows
			name: "tighter_target",
			cfg:  Config{Target: 500 * time.Millisecond, InitialBatch: 64},
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
		c := NewController(Config{Target: 10 * time.Millisecond, MinBatch: 16, MaxBatch: 4096, InitialBatch: 1024})
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
		c := NewController(Config{Target: 10 * time.Millisecond, MinBatch: 16, MaxBatch: 64, InitialBatch: 16})
		c.Observe(16, 1600, time.Second) // way over target, already at floor
		if st := c.Stats(); st.Shrinks != 0 || st.Holds != 1 {
			t.Fatalf("clamped decision miscounted: %+v, want 1 hold", st)
		}
	})
}

func TestControllerStepBounds(t *testing.T) {
	// One catastrophic outlier must not move the batch by more than the
	// per-step ratio clamp (even before EWMA damping).
	c := NewController(Config{Target: 2 * time.Second, InitialBatch: 1000, Alpha: 1})
	d := c.Observe(1000, 100_000, 200*time.Second)
	if d.BatchRows < 500 {
		t.Fatalf("single outlier shrank batch to %d, want >= 500 (half)", d.BatchRows)
	}
	d = c.Observe(d.BatchRows, 100, time.Nanosecond)
	if d.BatchRows > 750+1 {
		t.Fatalf("single fast sample grew batch to %d, want <= 1.5x", d.BatchRows)
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
	// InitialBatch is clamped into [MinBatch, MaxBatch].
	c = NewController(Config{MinBatch: 100, MaxBatch: 200, InitialBatch: 5000})
	if got := c.Hint().BatchRows; got != 200 {
		t.Fatalf("initial batch not clamped: %d", got)
	}
}

// BenchmarkControllerObserve pins the steady-state controller step as
// allocation-free: it runs once per committed micro-batch and must not put
// the allocator on the commit path.
func BenchmarkControllerObserve(b *testing.B) {
	c := NewController(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(512, 512*120, 1900*time.Millisecond)
	}
}

// TestControllerObserveAllocFree is the CI alloc-regression gate for the
// controller step: Observe runs once per committed micro-batch on the
// streaming commit path and must never allocate.
func TestControllerObserveAllocFree(t *testing.T) {
	c := NewController(Config{})
	allocs := testing.AllocsPerRun(100, func() {
		c.Observe(512, 512*120, 1900*time.Millisecond)
		c.Observe(512, 512*120, 2100*time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f per call pair, want 0", allocs)
	}
}

func TestObserveStagesAttribution(t *testing.T) {
	c := NewController(Config{Target: 2 * time.Second})
	// Before any stage breakdown: no attribution.
	d := c.Observe(100, 10000, 500*time.Millisecond)
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
	d = c.Observe(100, 10000, 500*time.Millisecond)
	if d.Dominant != "apply" {
		t.Errorf("dominant %q after plain Observe, want apply", d.Dominant)
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
