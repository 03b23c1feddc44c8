package etlvirt_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/ltype"
	"etlvirt/internal/stream"
	"etlvirt/internal/testhost"
	"etlvirt/internal/wire"
)

// TestStreamResumeAtSpoolRotation pins checkpoint/resume for wide-record
// micro-batches: 16 records of ~4 KiB each, over 64 KiB of CSV, commit from
// one spool object as one batch. A client kill right after two such commits,
// followed by a full from-delta-1 replay, must resume at the second batch's
// watermark, re-apply nothing, and land the same final state a plain
// in-order application produces.
func TestStreamResumeAtSpoolRotation(t *testing.T) {
	const (
		batch   = 16
		total   = 48
		payload = 4150 // CSV row ≈ 4160 bytes; 16 rows cross 64 KiB, 15 do not
	)
	// The sizing premise the whole test rests on: rotation (>= 64 KiB) fires
	// on row 16 of a batch, never earlier. CSV rows are
	// "<seq>,<5-char key>,<payload>\n".
	minRow := 1 + 1 + 5 + 1 + payload + 1 // single-digit seq
	maxRow := 2 + 1 + 5 + 1 + payload + 1 // two-digit seq (total <= 99)
	if batch*minRow < 64<<10 {
		t.Fatalf("sizing premise broken: %d rows * %d bytes < 64KiB, rotation misses the boundary", batch, minRow)
	}
	if (batch-1)*maxRow >= 64<<10 {
		t.Fatalf("sizing premise broken: %d rows * %d bytes >= 64KiB, rotation fires early", batch-1, maxRow)
	}

	const ddl = `CREATE TABLE WD.T (
	ID VARCHAR(5) NOT NULL,
	PAYLOAD VARCHAR(4200),
	PRIMARY KEY (ID))`
	const applySQL = `insert into WD.T values ( trim(:ID), trim(:PAYLOAD) )`

	// Upsert-only delta stream over a 40-key space: first image of a key
	// inserts, later images update. The last image per key is the oracle.
	type img struct{ id, payload string }
	deltas := make([]img, 0, total)
	expect := map[string]string{}
	ops := make([]stream.Op, 0, total)
	for i := 1; i <= total; i++ {
		id := fmt.Sprintf("K%04d", 1+(i*7)%40)
		pl := strings.Repeat(string(rune('a'+i%26)), payload)
		op := stream.OpUpdate
		if _, live := expect[id]; !live {
			op = stream.OpInsert
		}
		deltas = append(deltas, img{id: id, payload: pl})
		ops = append(ops, op)
		expect[id] = pl
	}

	p := testhost.StartPair(t, testhost.Options{
		DDL: []string{ddl},
		Node: func(cfg *core.Config) {
			// Pin the adaptive batch to exactly the rotation-crossing width.
			cfg.StreamMinBatch = batch
			cfg.StreamMaxBatch = batch
		},
	})

	layout := &ltype.Layout{Name: "WideLayout", Fields: []ltype.Field{
		{Name: "ID", Type: ltype.VarChar(5)},
		{Name: "PAYLOAD", Type: ltype.VarChar(4200)},
	}}
	dial := func() *wire.Conn {
		c, err := wire.Dial(p.NodeAddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(0, &wire.Logon{User: "u", Password: "p"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Expect(wire.KindLogonOK); err != nil {
			t.Fatal(err)
		}
		return c
	}
	begin := func(c *wire.Conn) *wire.StreamOK {
		if err := c.Send(0, &wire.BeginStream{
			Name: "wide_cdc", Table: "WD.T", ErrTableET: "WD.T_ET",
			Layout: layout, Format: wire.FormatVartext, Delim: '|', SQL: applySQL,
		}); err != nil {
			t.Fatal(err)
		}
		m, err := c.Expect(wire.KindStreamOK)
		if err != nil {
			t.Fatalf("begin stream: %v", err)
		}
		return m.(*wire.StreamOK)
	}
	sendRange := func(c *wire.Conn, id uint64, lo, hi int) []*wire.DeltaAck {
		var acks []*wire.DeltaAck
		for f := lo; f <= hi; f += batch {
			end := f + batch - 1
			if end > hi {
				end = hi
			}
			var pay []byte
			for s := f; s <= end; s++ {
				rec := fmt.Sprintf("%s|%s\n", deltas[s-1].id, deltas[s-1].payload)
				pay = stream.AppendDelta(pay, ops[s-1], []byte(rec))
			}
			if err := c.Send(0, &wire.DeltaFrame{
				StreamID: id, FirstSeq: uint64(f), Count: uint32(end - f + 1), Payload: pay,
			}); err != nil {
				t.Fatal(err)
			}
			m, err := c.Expect(wire.KindDeltaAck)
			if err != nil {
				t.Fatalf("frame at seq %d: %v", f, err)
			}
			acks = append(acks, m.(*wire.DeltaAck))
		}
		return acks
	}
	waitIdle := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			busy := false
			for _, j := range p.Node.ActiveJobs() {
				if j.Kind == "stream" {
					busy = true
				}
			}
			if !busy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("stream jobs still active after kill")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: two full batches, each cut at the spool-rotation boundary,
	// then a kill with a third of the stream unsent. The checkpoint after
	// each frame must sit exactly on the batch edge — the rotated spool was
	// committed whole, nothing straddles.
	c := dial()
	ok := begin(c)
	if ok.ResumeSeq != 0 {
		t.Fatalf("fresh stream resumes at %d", ok.ResumeSeq)
	}
	acks := sendRange(c, ok.StreamID, 1, 2*batch)
	if len(acks) != 2 || acks[0].CommittedSeq != batch || acks[1].CommittedSeq != 2*batch {
		t.Fatalf("batch-edge checkpoints wrong: %+v", acks)
	}
	c.Close()
	waitIdle()

	// Phase 2: resume. The durable watermark must be the rotated batch edge,
	// and a full from-delta-1 replay must drop everything at or below it.
	c = dial()
	ok = begin(c)
	if ok.ResumeSeq != 2*batch {
		t.Fatalf("resume watermark %d, want %d", ok.ResumeSeq, 2*batch)
	}
	acks = sendRange(c, ok.StreamID, 1, total)
	for i, a := range acks[:2] {
		if a.CommittedSeq != 2*batch {
			t.Errorf("replayed frame %d moved the watermark to %d", i, a.CommittedSeq)
		}
	}
	if last := acks[len(acks)-1]; last.CommittedSeq != total {
		t.Errorf("final checkpoint %d, want %d", last.CommittedSeq, total)
	}
	if err := c.Send(0, &wire.EndStream{StreamID: ok.StreamID}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Expect(wire.KindStreamDone)
	if err != nil {
		t.Fatalf("end stream: %v", err)
	}
	done := m.(*wire.StreamDone)
	c.Close()
	if done.Watermark != total {
		t.Errorf("final watermark %d, want %d", done.Watermark, total)
	}
	if done.Replayed != 2*batch {
		t.Errorf("replayed %d deltas, want %d (everything at or below the resume watermark)",
			done.Replayed, 2*batch)
	}

	// The landed state must be the last image per key — no delta lost at the
	// rotation boundary, none double-applied by the replay.
	rows := testhost.State(t, p.CDWEng, "SELECT ID, PAYLOAD FROM WD.T")
	if len(rows) != len(expect) {
		t.Fatalf("landed %d keys, want %d", len(rows), len(expect))
	}
	for _, r := range rows {
		id, pl, _ := strings.Cut(r, "|")
		if expect[id] != pl {
			t.Errorf("key %s landed a stale or corrupted image (len %d)", id, len(pl))
		}
	}
}
