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
	"etlvirt/internal/tdf"
	"etlvirt/internal/wire"
)

// exportJob serves one virtualized export (Figure 2(b)). A TDFCursor
// goroutine retrieves CDW result batches on demand, packages them as TDF
// packets, and buffers a bounded window ahead of client requests. Client
// export sessions request chunks by sequence number; the PXC unwraps the TDF
// packet for that sequence and re-encodes its rows in the legacy format.
type exportJob struct {
	id     uint64
	node   *Node
	layout *ltype.Layout
	cols   []cdwnet.ResultCol
	format wire.DataFormat
	delim  byte

	mu      sync.Mutex
	cond    *sync.Cond
	packets map[uint64]*tdf.Packet
	nextSeq uint64 // next packet the producer will emit
	lastSeq uint64 // seq of the packet marked Last; valid when done
	done    bool
	err     error

	client     *cdwnet.Client
	cursorDone chan struct{} // closed when runCursor has released the cursor
	rows       int64
	rowsOut    atomic.Int64 // rows encoded for the client, observable lock-free
	batches    atomic.Int64 // result batches fetched by the TDFCursor
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
	// Opening an export pins a pooled connection for the cursor's lifetime,
	// so the pool's internal round-trip retry does not apply; re-drive the
	// open (fresh Get + Query) under the node retry policy instead.
	var client *cdwnet.Client
	var cur *cdwnet.Cursor
	openStart := time.Now()
	err = n.retry.Do(n.ctx, "export.open", func() error {
		c, err := n.pool.Get()
		if err != nil {
			return err
		}
		rtStart := time.Now()
		q, err := c.QueryT(cdwSQL, n.cfg.ExportChunkRows, trace.ChildContext())
		// The pinned connection bypasses the pool's round-trip hook; report
		// the open ourselves so the CDW's side of it joins the trace.
		n.traceRoundTrip("query", trace.ChildContext(), rtStart, time.Since(rtStart), c.EngineNanos(), err)
		if err != nil {
			n.pool.Put(c) // discards if the fault poisoned it
			return err
		}
		client, cur = c, q
		return nil
	})
	trace.Span("export_open", "tdfcursor", openStart, 0, 0, err)
	if err != nil {
		n.tracer.Finish(id)
		return nil, err
	}
	n.nm.exportsStarted.Inc()
	j := &exportJob{
		id:         id,
		node:       n,
		cols:       cur.Columns(),
		format:     m.Format,
		delim:      m.Delim,
		packets:    make(map[uint64]*tdf.Packet),
		client:     client,
		cursorDone: make(chan struct{}),
		started:    time.Now(),
		trace:      trace,
	}
	j.cond = sync.NewCond(&j.mu)
	j.layout = layoutFromCols(fmt.Sprintf("export_%d", id), j.cols)
	if m.Delim == 0 {
		j.delim = '|'
	}

	go j.runCursor(cur)

	n.mu.Lock()
	n.exports[id] = j
	n.mu.Unlock()
	return j, nil
}

// runCursor is the TDFCursor process: pull result batches, wrap them in TDF
// packets, and buffer up to exportPrefetch packets ahead of consumption.
func (j *exportJob) runCursor(cur *cdwnet.Cursor) {
	defer func() {
		_ = cur.Close() // drain so the pooled connection is reusable
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
		for len(j.packets) >= exportPrefetch && j.err == nil && !j.done {
			j.cond.Wait()
		}
		if j.done && ok {
			// client abandoned the export
			j.mu.Unlock()
			return
		}
		if !ok {
			// mark the previous packet as last, or emit an empty last packet
			if seq == 0 {
				j.packets[0] = &tdf.Packet{Seq: 0, Last: true, Columns: j.tdfColumns()}
				seq = 1
			} else if p, ok := j.packets[seq-1]; ok {
				p.Last = true
			} else {
				j.packets[seq] = &tdf.Packet{Seq: seq, Last: true, Columns: j.tdfColumns()}
				seq++
			}
			j.lastSeq = seq - 1
			j.done = true
			j.nextSeq = seq
			j.cond.Broadcast()
			j.mu.Unlock()
			return
		}
		p := &tdf.Packet{Seq: seq, Columns: j.tdfColumns()}
		for _, row := range batch {
			tr := make([]tdf.Value, len(row))
			for i, d := range row {
				tr[i] = datumToTDF(d)
			}
			p.Rows = append(p.Rows, tr)
		}
		j.packets[seq] = p
		seq++
		j.nextSeq = seq
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

func (j *exportJob) tdfColumns() []tdf.Column {
	out := make([]tdf.Column, len(j.cols))
	for i, c := range j.cols {
		out[i] = tdf.Column{Name: c.Name, DeclType: c.Type.String()}
	}
	return out
}

// chunk returns the encoded legacy payload for packet seq, blocking until
// the TDFCursor has buffered it.
func (j *exportJob) chunk(seq uint64) (*wire.ExportChunk, error) {
	j.mu.Lock()
	for {
		if j.err != nil {
			err := j.err
			j.mu.Unlock()
			return nil, err
		}
		if p, ok := j.packets[seq]; ok {
			delete(j.packets, seq)
			j.cond.Broadcast() // free prefetch space
			j.mu.Unlock()
			return j.encodePacket(p)
		}
		if j.done {
			// past the end: empty EOF chunk
			j.mu.Unlock()
			return &wire.ExportChunk{JobID: j.id, Seq: seq, EOF: true}, nil
		}
		j.cond.Wait()
	}
}

// encodePacket unwraps a TDF packet and encodes its rows in the legacy
// format — the PXC's export-direction conversion (§4).
func (j *exportJob) encodePacket(p *tdf.Packet) (*wire.ExportChunk, error) {
	rows := make([][]cdw.Datum, len(p.Rows))
	for i, tr := range p.Rows {
		row := make([]cdw.Datum, len(tr))
		for k, v := range tr {
			d, err := tdfToDatum(v, j.cols[k].Type)
			if err != nil {
				return nil, err
			}
			row[k] = d
		}
		rows[i] = row
	}
	encStart := time.Now()
	payload, err := encodeRowsLegacy(rows, j.layout, uint8(j.format), j.delim)
	if err != nil {
		return nil, err
	}
	j.trace.Span("export_encode", "pxc", encStart, int64(len(rows)), int64(len(payload)), nil)
	j.node.nm.rowsExported.Add(int64(len(rows)))
	j.node.nm.exportChunks.Inc()
	j.rowsOut.Add(int64(len(rows)))
	j.mu.Lock()
	j.rows += int64(len(rows))
	j.mu.Unlock()
	return &wire.ExportChunk{
		JobID:   j.id,
		Seq:     p.Seq,
		Count:   uint32(len(p.Rows)),
		EOF:     p.Last,
		Payload: payload,
	}, nil
}

// finish releases the CDW connection and files a report.
func (j *exportJob) finish() {
	j.mu.Lock()
	j.done = true
	rows := j.rows
	j.cond.Broadcast()
	j.mu.Unlock()
	// Wait for the TDFCursor to drain the cursor (it may still be mid-fetch
	// if the client abandoned the export early), then return the connection.
	<-j.cursorDone
	j.node.pool.Put(j.client)
	r := JobReport{
		JobID:        j.id,
		Export:       true,
		ExportedRows: rows,
		Other:        time.Since(j.started),
	}
	j.node.record(r)
	j.node.nm.exportsCompleted.Inc()
	j.node.tracer.Finish(j.id)
	j.node.mu.Lock()
	delete(j.node.exports, j.id)
	j.node.mu.Unlock()
}
