package core

import (
	"fmt"
	"testing"
)

func manifestFiles(n int) []string {
	files := make([]string, n)
	for i := range files {
		files[i] = fmt.Sprintf("part-%05d.csv.gz", i)
	}
	return files
}

// TestTakeBatchAllocFree pins the copy-scheduler hot path at zero
// allocations: splitting the next manifest batch off the pending list is
// pure reslicing.
func TestTakeBatchAllocFree(t *testing.T) {
	pending := manifestFiles(64)
	var batch, rest []string
	allocs := testing.AllocsPerRun(200, func() {
		rest = pending
		for len(rest) > 0 {
			batch, rest = takeBatch(rest, 4)
		}
	})
	if allocs != 0 {
		t.Errorf("takeBatch allocates %.1f times per drain, want 0", allocs)
	}
	_ = batch
}

// TestTakeBatchClamping covers the batch-size edges: a non-positive or
// oversized n degrades to a usable batch instead of panicking, and the batch
// slice is capacity-capped so appends to rest can never alias into it.
func TestTakeBatchClamping(t *testing.T) {
	pending := manifestFiles(3)
	batch, rest := takeBatch(pending, 0)
	if len(batch) != 1 || len(rest) != 2 {
		t.Errorf("n=0: batch %d rest %d, want 1/2", len(batch), len(rest))
	}
	batch, rest = takeBatch(pending, 99)
	if len(batch) != 3 || len(rest) != 0 {
		t.Errorf("n=99: batch %d rest %d, want 3/0", len(batch), len(rest))
	}
	batch, rest = takeBatch(pending, 2)
	if cap(batch) != len(batch) {
		t.Errorf("batch cap %d exceeds len %d: appends to rest could corrupt it", cap(batch), len(batch))
	}
	_ = rest
}

// BenchmarkTakeBatch measures the scheduler's batch-split hot path.
func BenchmarkTakeBatch(b *testing.B) {
	pending := manifestFiles(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rest := pending
		for len(rest) > 0 {
			_, rest = takeBatch(rest, 4)
		}
	}
}
