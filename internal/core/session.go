package core

import (
	"fmt"
	"net"

	"etlvirt/internal/wire"
)

// serveConn runs the PXC state machine for one client connection. The
// legacy protocol is strictly request/response per session, so a single
// goroutine per connection suffices; concurrency comes from clients opening
// parallel data sessions (each its own connection).
func (n *Node) serveConn(nc net.Conn) {
	c := wire.NewConn(nc)
	defer c.Close()

	m, _, err := c.Recv()
	if err != nil {
		return
	}
	logon, ok := m.(*wire.Logon)
	if !ok {
		_ = c.Send(0, &wire.Failure{Code: 3001, Message: "expected logon"})
		return
	}
	if logon.User == "" {
		_ = c.Send(0, &wire.Failure{Code: 3002, Message: "missing user"})
		return
	}
	session := n.nextSession.Add(1)
	if err := c.Send(session, &wire.LogonOK{SessionID: session, ServerVersion: "etlvirt/1.0"}); err != nil {
		return
	}

	// Jobs begun on this control session; any still registered when the
	// connection drops are aborted so they cannot leak goroutines, staging
	// tables or uploaded objects.
	ownedImports := make(map[uint64]bool)
	ownedExports := make(map[uint64]bool)
	ownedStreams := make(map[uint64]bool)
	defer func() {
		for id := range ownedImports {
			if job, ok := n.importJob(id); ok {
				job.abort()
			}
		}
		for id := range ownedExports {
			if job, ok := n.exportJob(id); ok {
				job.finish()
			}
		}
		// A dropped streaming connection aborts its stream: buffered deltas
		// are discarded and their credits returned; checkpoint and error
		// tables stay so the stream's next incarnation resumes.
		for id := range ownedStreams {
			if job, ok := n.streamJob(id); ok {
				job.abort()
			}
		}
	}()

	for {
		m, _, tc, err := c.RecvT()
		if err != nil {
			return
		}
		// Each case leaves its answer in reply (a *wire.Failure for a
		// request-level error, which keeps the session open); cases that
		// answer on their own leave it nil.
		var reply wire.Message
		switch msg := m.(type) {
		case *wire.Logoff:
			return

		case *wire.RunSQL:
			if err := n.handleRunSQL(c, session, msg); err != nil {
				return
			}

		case *wire.BeginLoad:
			job, err := n.newImportJob(msg, tc)
			if err != nil {
				reply = &wire.Failure{Code: 3004, Message: err.Error()}
				break
			}
			ownedImports[job.id] = true
			reply = &wire.LoadOK{JobID: job.id}

		case *wire.AttachLoad:
			if _, ok := n.importJob(msg.JobID); !ok {
				reply = noSuchJob(msg.JobID)
				break
			}
			reply = &wire.AttachOK{}

		case *wire.DataChunk:
			job, ok := n.importJob(msg.JobID)
			if !ok {
				reply = noSuchJob(msg.JobID)
				break
			}
			job.pending.Add(1)
			// Minimal validation, then acknowledge immediately (§5); the
			// credit acquisition below is the only back-pressure.
			if err := c.Send(session, &wire.ChunkAck{Seq: msg.Seq}); err != nil {
				job.pending.Done()
				return
			}
			if err := job.handleChunk(msg); err != nil {
				// the job is poisoned; subsequent EndAcquire reports it
				n.log.Error("chunk handling failed", "job", job.id, "err", err)
			}

		case *wire.EndAcquire:
			job, ok := n.importJob(msg.JobID)
			if !ok {
				reply = noSuchJob(msg.JobID)
				break
			}
			done, err := job.finishAcquisition()
			if err != nil {
				reply = &wire.Failure{Code: 3006, Message: err.Error()}
				break
			}
			reply = done

		case *wire.ApplyDML:
			job, ok := n.importJob(msg.JobID)
			if !ok {
				reply = noSuchJob(msg.JobID)
				break
			}
			res, err := job.applyDML(msg)
			if err != nil {
				reply = &wire.Failure{Code: 3007, Message: err.Error()}
				break
			}
			reply = res

		case *wire.EndLoad:
			job, ok := n.importJob(msg.JobID)
			if !ok {
				reply = noSuchJob(msg.JobID)
				break
			}
			job.finish()
			delete(ownedImports, job.id)
			reply = &wire.LoadDone{JobID: job.id}

		case *wire.BeginExport:
			job, err := n.newExportJob(msg, tc)
			if err != nil {
				reply = &wire.Failure{Code: 3008, Message: err.Error()}
				break
			}
			ownedExports[job.id] = true
			reply = &wire.ExportOK{JobID: job.id, Layout: job.layout}

		case *wire.ExportChunkRq:
			job, ok := n.exportJob(msg.JobID)
			if !ok {
				reply = noSuchJob(msg.JobID)
				break
			}
			chunk, err := job.chunk(msg.Seq)
			if err != nil {
				reply = &wire.Failure{Code: 3009, Message: err.Error()}
				break
			}
			reply = chunk

		case *wire.EndExport:
			if job, ok := n.exportJob(msg.JobID); ok {
				job.finish()
				delete(ownedExports, msg.JobID)
			}
			reply = &wire.LoadDone{JobID: msg.JobID}

		case *wire.BeginStream:
			job, err := n.newStreamJob(msg, tc)
			if err != nil {
				reply = &wire.Failure{Code: 3010, Message: err.Error()}
				break
			}
			ownedStreams[job.id] = true
			reply = &wire.StreamOK{
				StreamID:  job.id,
				ResumeSeq: uint64(job.watermark),
				BatchHint: uint32(job.ctrl.Hint().BatchRows),
			}

		case *wire.DeltaFrame:
			job, ok := n.streamJob(msg.StreamID)
			if !ok {
				reply = noSuchJob(msg.StreamID)
				break
			}
			ack, err := job.handleFrame(msg)
			if err != nil {
				// A failed frame poisons the stream: abort so the client's
				// reconnect resumes from the durable watermark.
				job.abort()
				delete(ownedStreams, msg.StreamID)
				reply = &wire.Failure{Code: 3011, Message: err.Error()}
				break
			}
			reply = ack

		case *wire.EndStream:
			job, ok := n.streamJob(msg.StreamID)
			if !ok {
				reply = noSuchJob(msg.StreamID)
				break
			}
			done, err := job.finishStream()
			delete(ownedStreams, msg.StreamID)
			if err != nil {
				job.abort()
				reply = &wire.Failure{Code: 3011, Message: err.Error()}
				break
			}
			reply = done

		case *wire.TraceSpans:
			// Client-side spans for one of this trace's jobs: fold them into
			// the job's timeline so /traces/{id} stitches both processes.
			reply = &wire.TraceAck{JobID: msg.JobID, Added: n.foldTraceSpans(msg)}

		default:
			reply = &wire.Failure{Code: 3003, Message: fmt.Sprintf("unexpected message %s", m.Kind())}
		}
		if reply != nil {
			if err := c.Send(session, reply); err != nil {
				return
			}
		}
	}
}

func (n *Node) importJob(id uint64) (*importJob, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.imports[id]
	return j, ok
}

func (n *Node) exportJob(id uint64) (*exportJob, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.exports[id]
	return j, ok
}

func (n *Node) streamJob(id uint64) (*streamJob, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.streams[id]
	return j, ok
}

func noSuchJob(id uint64) *wire.Failure {
	return &wire.Failure{Code: 3005, Message: fmt.Sprintf("no such job %d", id)}
}

// foldTraceSpans merges client-recorded spans into a job's trace timeline.
// The job may be live or already finished-and-retained; spans past the
// trace's span cap are dropped there and not counted as added.
func (n *Node) foldTraceSpans(m *wire.TraceSpans) uint32 {
	t, ok := n.tracer.Get(m.JobID)
	if !ok {
		return 0
	}
	before := t.Snapshot().Dropped
	for _, s := range m.Spans {
		if s.Proc == "" {
			s.Proc = "etlclient" // defensive: never inherit the server's proc
		}
		t.AddRemote(s)
	}
	dropped := t.Snapshot().Dropped - before
	return uint32(len(m.Spans)) - uint32(dropped)
}
