package core

import "fmt"

// This file drives an import's stagingLane (staginglane.go): the copy
// scheduler that lands already-uploaded files in incremental manifest COPY
// batches of cfg.CopyBatchFiles while acquisition is still producing more,
// overlapping COPY latency with conversion, spooling and upload.

// takeBatch splits the next n names off pending without copying. The batch
// is capacity-capped so later appends to rest can never write into it —
// landed batches retain their manifest slices across COPY recovery replays.
func takeBatch(pending []string, n int) (batch, rest []string) {
	if n < 1 {
		n = 1
	}
	if n > len(pending) {
		n = len(pending)
	}
	return pending[:n:n], pending[n:]
}

// runCopyScheduler is the copy-scheduler stage: it accumulates uploaded
// object names and folds them into manifest COPY statements of
// CopyBatchFiles files, issued while the rest of the pipeline keeps running.
// When the channel closes (all uploads landed) it sweeps whatever remains as
// the final barrier COPY, so finishAcquisition only has to verify totals.
//
// Once the job is aborted or poisoned (a COPY failed permanently, another
// stage called fail, the client went away) nothing more is issued — finish
// drops the staging table anyway — but the channel is still drained so
// uploaders never block.
func (j *importJob) runCopyScheduler() {
	defer j.schedWG.Done()
	n := j.node.cfg.CopyBatchFiles
	var pending []string
	halted := func() bool { return j.aborted.Load() || j.failed() != nil }
	for name := range j.copyableCh {
		pending = append(pending, name)
		for len(pending) >= n && !halted() {
			pending = j.issueCopyBatch(pending, n)
		}
	}
	for len(pending) > 0 && !halted() {
		pending = j.issueCopyBatch(pending, n)
	}
}

// issueCopyBatch lands the next n pending files as one manifest batch, keeps
// the live bookkeeping the debug view reads, and returns the files still
// pending. A failed batch poisons the job.
func (j *importJob) issueCopyBatch(pending []string, n int) []string {
	batch, rest := takeBatch(pending, n)
	staged, err := j.lane.land(batch)
	if err != nil {
		j.fail(fmt.Errorf("incremental COPY into staging failed: %w", err))
		return rest
	}
	j.stagedN += staged
	j.copyQueue.Add(int64(-len(batch)))
	j.batchesN.Add(1)
	nm := j.node.nm
	nm.copyBatches.Inc()
	nm.copyBatchFiles.Observe(float64(len(batch)))
	return rest
}
