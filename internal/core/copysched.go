package core

import (
	"fmt"
	"time"

	"etlvirt/internal/obs"
	"etlvirt/internal/tune"
)

// This file drives an import's stagingLane (staginglane.go): the copy
// scheduler that lands already-uploaded files in incremental manifest COPY
// batches while acquisition is still producing more (overlapping COPY latency
// with conversion, spooling and upload), and the adaptive tuner loop that
// retunes the lane's knobs — uploader parallelism, spool rotation threshold,
// gzip level, files-per-COPY — from live per-stage observations.

// staticGzipLevel maps the node config to the knob/tuner gzip convention:
// 0 means uncompressed, 1..9 an explicit level. A configured Gzip with no
// usable level lands on 6, the codec's default-compression work factor.
func staticGzipLevel(cfg Config) int {
	if !cfg.Gzip {
		return 0
	}
	if cfg.GzipLevel >= 1 && cfg.GzipLevel <= 9 {
		return cfg.GzipLevel
	}
	return 6
}

// takeBatch splits the next n names off pending without copying. The batch
// is capacity-capped so later appends to rest can never write into it —
// landed batches retain their manifest slices across COPY recovery replays.
//
//etlvirt:hotpath
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
// object names and folds them into manifest COPY statements sized by the
// files-per-COPY knob, issued while the rest of the pipeline keeps running.
// When the channel closes (all uploads landed) it sweeps whatever remains as
// the final barrier COPY, so finishAcquisition only has to verify totals.
//
// Once the job is aborted or poisoned (a COPY failed permanently, another
// stage called fail, the client went away) nothing more is issued — finish
// drops the staging table anyway — but the channel is still drained so
// uploaders never block.
func (j *importJob) runCopyScheduler() {
	defer j.schedWG.Done()
	var pending []string
	halted := func() bool { return j.aborted.Load() || j.failed() != nil }
	for name := range j.copyableCh {
		pending = append(pending, name)
		for !halted() {
			n := int(j.copyFilesN.Load())
			if n < 1 || len(pending) < n {
				break
			}
			pending = j.issueCopyBatch(pending, n)
		}
	}
	for len(pending) > 0 && !halted() {
		pending = j.issueCopyBatch(pending, int(j.copyFilesN.Load()))
	}
}

// issueCopyBatch lands the next n pending files as one manifest batch, keeps
// the live bookkeeping the tuner and debug view read, and returns the files
// still pending. A failed batch poisons the job.
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

// resizeUploaders steers the live uploader pool toward n workers: missing
// workers are spawned, surplus ones are asked to retire via quit tokens.
// Token sends never block — a busy pool just shrinks on a later tick.
func (j *importJob) resizeUploaders(n int) {
	if n < 1 {
		n = 1
	}
	j.upMu.Lock()
	defer j.upMu.Unlock()
	if j.upClosed {
		return
	}
	for j.upLive < n {
		j.upLive++
		j.uploadWG.Add(1)
		idx := int(j.upSeq.Add(1))
		go j.runUploader(idx)
	}
	for extra := j.upLive - n; extra > 0; extra-- {
		select {
		case j.upQuit <- struct{}{}:
		default:
			return
		}
	}
}

// runTuner is the adaptive staging-lane control loop: each tick it samples
// the per-stage busy counters the pipeline goroutines maintain, feeds the
// deltas to the ImportTuner, and applies the returned geometry through the
// knob atomics and the uploader pool.
func (j *importJob) runTuner(interval time.Duration) {
	defer j.tunerWG.Done()
	tk := time.NewTicker(interval)
	defer tk.Stop()
	nm := j.node.nm
	var prevSpool, prevUpload, prevLatSum, prevLatN int64
	last := time.Now()
	for {
		select {
		case <-j.tunerStop:
			return
		case now := <-tk.C:
			elapsed := now.Sub(last)
			last = now
			spool := j.spoolBusyNs.Load()
			upload := j.upBusyNs.Load()
			latSum := j.fileLatNs.Load()
			latN := j.fileLatCount.Load()
			j.upMu.Lock()
			workers := j.upLive
			j.upMu.Unlock()
			o := tune.ImportObservation{
				Elapsed:         elapsed,
				Workers:         workers,
				SpoolBusy:       time.Duration(spool - prevSpool),
				UploadBusy:      time.Duration(upload - prevUpload),
				QueuedCopyFiles: int(j.copyQueue.Load()),
			}
			if dn := latN - prevLatN; dn > 0 {
				o.FileLatency = time.Duration((latSum - prevLatSum) / dn)
			}
			prevSpool, prevUpload, prevLatSum, prevLatN = spool, upload, latSum, latN

			d := j.tuner.Observe(o)
			j.spoolBytesN.Store(int64(d.SpoolBytes))
			j.gzipLevelN.Store(int64(d.GzipLevel))
			j.copyFilesN.Store(int64(d.CopyFiles))
			j.resizeUploaders(d.Workers)
			switch d.Action {
			case tune.ActionGrow:
				nm.tunerGrows.Inc()
			case tune.ActionShrink:
				nm.tunerShrinks.Inc()
			default:
				nm.tunerHolds.Inc()
			}
			snap := j.tuner.Snapshot()
			j.tuneMu.Lock()
			j.tuneSnap = snap
			j.tuneMu.Unlock()
			j.trace.Add(obs.Span{Stage: "tune", Worker: d.Action.String(),
				Start: now, Dur: time.Since(now),
				Rows: int64(d.Workers), Bytes: int64(d.SpoolBytes)})
			if d.Action != tune.ActionHold {
				j.node.events.Add(obs.Event{
					Type: "tune_decision", Job: j.id, TraceID: j.traceID(),
					Msg: d.Action.String(),
					Attrs: map[string]any{
						"workers": d.Workers, "spool_bytes": d.SpoolBytes,
						"gzip_level": d.GzipLevel, "copy_files": d.CopyFiles,
						"dominant": d.Dominant,
					},
				})
			}
		}
	}
}

// tuningStatus snapshots the tuner for /jobs/active; nil when the job runs
// with static knobs.
func (j *importJob) tuningStatus() *TuningStatus {
	if j.tuner == nil {
		return nil
	}
	j.tuneMu.Lock()
	s := j.tuneSnap
	j.tuneMu.Unlock()
	return &TuningStatus{
		Workers:        s.Workers,
		SpoolBytes:     s.SpoolBytes,
		GzipLevel:      s.GzipLevel,
		CopyFiles:      s.CopyFiles,
		UtilizationPct: s.Utilization * 100,
		FileLatencyMS:  s.FileLatency.Milliseconds(),
		QueueDepth:     s.QueueDepth,
		Dominant:       s.Dominant,
		Grows:          s.Stats.Grows,
		Shrinks:        s.Stats.Shrinks,
		Holds:          s.Stats.Holds,
	}
}
