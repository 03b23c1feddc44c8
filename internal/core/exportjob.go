package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
	"etlvirt/internal/wire"
)

// exportJob serves one virtualized export (Figure 2(b)). A TDFCursor
// goroutine retrieves CDW result batches on demand and buffers a bounded
// window of them ahead of client requests. Client export sessions request
// chunks by sequence number; the PXC encodes the CDW rows of that batch in
// the legacy format. The batches never leave this process, so they stay CDW
// datums: TDF is for bytes that cross a process boundary.
type exportJob struct {
	id     uint64
	node   *Node
	layout *ltype.Layout
	format wire.DataFormat
	delim  byte

	mu   sync.Mutex
	cond *sync.Cond
	buf  map[uint64]*exportBatch // fetched batches by sequence number
	done bool
	err  error

	cursorDone chan struct{} // closed when runCursor has closed the cursor
	rowsOut    atomic.Int64  // rows encoded for the client, observable lock-free
	batches    atomic.Int64  // result batches fetched by the TDFCursor
	started    time.Time
	trace      *obs.JobTrace
}

func (n *Node) newExportJob(m *wire.BeginExport, tc obs.TraceContext) (*exportJob, error) {
	cdwSQL, err := n.translator().Translate(m.SQL)
	if err != nil {
		return nil, fmt.Errorf("cross-compiling export query: %w", err)
	}
	id := n.nextJob.Add(1)
	trace := n.tracer.StartCtx(id, "export", tc)
	openStart := time.Now()
	cur, err := n.pool.Open(obs.WithJob(n.ctx, trace), cdwnet.Stmt{SQL: cdwSQL}, n.cfg.ExportChunkRows)
	trace.Span("export_open", "tdfcursor", openStart, 0, 0, err)
	if err != nil {
		n.tracer.Finish(id)
		return nil, err
	}
	n.nm.exportsStarted.Inc()
	j := &exportJob{
		id:         id,
		node:       n,
		layout:     layoutFromCols(fmt.Sprintf("export_%d", id), cur.Columns()),
		format:     m.Format,
		delim:      m.Delim,
		buf:        make(map[uint64]*exportBatch),
		cursorDone: make(chan struct{}),
		started:    time.Now(),
		trace:      trace,
	}
	j.cond = sync.NewCond(&j.mu)
	if m.Delim == 0 {
		j.delim = '|'
	}

	go j.runCursor(cur)

	n.mu.Lock()
	n.exports[id] = j
	n.mu.Unlock()
	return j, nil
}

// exportBatch is one buffered CDW result batch; last marks the final one.
type exportBatch struct {
	rows [][]cdw.Datum
	last bool
}

// runCursor is the TDFCursor process: pull result batches and buffer up to
// exportPrefetch of them ahead of consumption.
func (j *exportJob) runCursor(cur *cdwnet.Cursor) {
	defer func() {
		_ = cur.Close() // hands the connection back; unread rows discard it
		close(j.cursorDone)
	}()
	nm := j.node.nm
	seq := uint64(0)
	for {
		fetchStart := time.Now()
		batch, ok, err := cur.NextBatch()
		if ok || err != nil {
			nm.exportBatches.Inc()
			nm.exportBatchLat.ObserveDuration(time.Since(fetchStart))
			j.batches.Add(1)
			j.trace.Span("export_fetch", "tdfcursor", fetchStart, int64(len(batch)), 0, err)
		}
		if err != nil {
			j.mu.Lock()
			j.err = err
			j.done = true
			j.cond.Broadcast()
			j.mu.Unlock()
			return
		}
		j.mu.Lock()
		for len(j.buf) >= exportPrefetch && j.err == nil && !j.done {
			j.cond.Wait()
		}
		if j.done && ok {
			// client abandoned the export
			j.mu.Unlock()
			return
		}
		if !ok {
			// mark the previous batch as last, or buffer an empty last one
			if b := j.buf[seq-1]; seq > 0 && b != nil {
				b.last = true
			} else {
				j.buf[seq] = &exportBatch{last: true}
			}
			j.done = true
			j.cond.Broadcast()
			j.mu.Unlock()
			return
		}
		j.buf[seq] = &exportBatch{rows: batch}
		seq++
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// chunk returns the encoded legacy payload for batch seq, blocking until
// the TDFCursor has buffered it.
func (j *exportJob) chunk(seq uint64) (*wire.ExportChunk, error) {
	j.mu.Lock()
	for {
		if j.err != nil {
			err := j.err
			j.mu.Unlock()
			return nil, err
		}
		if b, ok := j.buf[seq]; ok {
			delete(j.buf, seq)
			j.cond.Broadcast() // free prefetch space
			j.mu.Unlock()
			return j.encodeBatch(seq, b)
		}
		if j.done {
			// past the end: empty EOF chunk
			j.mu.Unlock()
			return &wire.ExportChunk{JobID: j.id, Seq: seq, EOF: true}, nil
		}
		j.cond.Wait()
	}
}

// encodeBatch encodes batch seq's rows in the legacy format — the PXC's
// export-direction conversion (§4).
func (j *exportJob) encodeBatch(seq uint64, b *exportBatch) (*wire.ExportChunk, error) {
	encStart := time.Now()
	payload, err := encodeRowsLegacy(b.rows, j.layout, j.format, j.delim)
	if err != nil {
		return nil, err
	}
	n := int64(len(b.rows))
	j.trace.Span("export_encode", "pxc", encStart, n, int64(len(payload)), nil)
	j.node.nm.rowsExported.Add(n)
	j.node.nm.exportChunks.Inc()
	j.rowsOut.Add(n)
	return &wire.ExportChunk{
		JobID:   j.id,
		Seq:     seq,
		Count:   uint32(n),
		EOF:     b.last,
		Payload: payload,
	}, nil
}

// finish stops the TDFCursor and files a report.
func (j *exportJob) finish() {
	j.mu.Lock()
	j.done = true
	j.cond.Broadcast()
	j.mu.Unlock()
	// Wait for the TDFCursor to close the cursor (it may still be mid-fetch
	// if the client abandoned the export early).
	<-j.cursorDone
	r := JobReport{
		JobID:        j.id,
		Export:       true,
		ExportedRows: j.rowsOut.Load(),
		Other:        time.Since(j.started),
	}
	j.node.record(r)
	j.node.nm.exportsCompleted.Inc()
	j.node.tracer.Finish(j.id)
	j.node.mu.Lock()
	delete(j.node.exports, j.id)
	j.node.mu.Unlock()
}
