package core_test

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// TestStreamTrickleProgress pins the liveness of the credit pool under
// trickle-fed streams. The batch hint is pinned at 64 rows, above every pool
// size tried, and each stream sends single-delta frames, so a micro-batch
// needs far more frames than the node has credits. Every frame must still be
// acked within 5 s, no credit may be held between frames, and the target
// must end at the last image per key. A design that keeps a frame's credit
// until its batch commits hangs at node frame pool+1.
func TestStreamTrickleProgress(t *testing.T) {
	const (
		batch  = 64
		frames = 3 * batch // per stream
		keys   = 24        // per stream; disjoint across streams
		ackDue = 5 * time.Second
	)
	for _, pool := range []int{1, 2, 8} {
		for _, streams := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("pool%d_streams%d", pool, streams), func(t *testing.T) {
				st := startStack(t, core.Config{
					Credits:        pool,
					StreamMinBatch: batch,
					StreamMaxBatch: batch,
				})
				mustEng(t, st.eng, customerDDL)

				type cdc struct {
					nc net.Conn
					c  *wire.Conn
					id uint64
				}
				conns := make([]cdc, streams)
				for s := range conns {
					nc, err := net.Dial("tcp", st.addr)
					if err != nil {
						t.Fatal(err)
					}
					defer nc.Close()
					c := wire.NewConn(nc)
					if err := c.Send(0, &wire.Logon{User: "u", Password: "p"}); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Expect(wire.KindLogonOK); err != nil {
						t.Fatal(err)
					}
					conns[s] = cdc{nc: nc, c: c, id: beginStream(t, c, fmt.Sprintf("trickle_%d", s), "").StreamID}
				}
				// roundTrip sends one message and waits at most ackDue for
				// the reply of the expected kind.
				roundTrip := func(sc cdc, msg wire.Message, kind wire.Kind, what string) wire.Message {
					t.Helper()
					if err := sc.c.Send(1, msg); err != nil {
						t.Fatal(err)
					}
					sc.nc.SetReadDeadline(time.Now().Add(ackDue))
					m, err := sc.c.Expect(kind)
					if err != nil {
						t.Fatalf("pool %d: %s: no reply within %v: %v", pool, what, ackDue, err)
					}
					return m
				}

				// Frames go round-robin across the streams from one
				// goroutine, so after each ack no other frame is in flight
				// and the pool must read full.
				rng := rand.New(rand.NewSource(int64(10*pool + streams)))
				want := map[string]string{} // last image per key; deletes remove
				nodeFrame := 0
				held := false
				for f := 1; f <= frames; f++ {
					for s, sc := range conns {
						nodeFrame++
						key := fmt.Sprintf("%d%04d", s, rng.Intn(keys))
						name := fmt.Sprintf("n%d_%d", s, f)
						op := []stream.Op{stream.OpInsert, stream.OpUpdate, stream.OpDelete}[rng.Intn(3)]
						ack := roundTrip(sc, &wire.DeltaFrame{
							StreamID: sc.id, FirstSeq: uint64(f), Count: 1,
							Payload: vtDelta(nil, op, key, name, "2024-01-02"),
						}, wire.KindDeltaAck, fmt.Sprintf("stream %d frame %d (node frame %d)", s, f, nodeFrame)).(*wire.DeltaAck)
						if cs := st.node.Credits(); (cs.Available != cs.Total || cs.InFlight != 0) && !held {
							held = true // report once, then go on to show whether the stream still flows
							t.Errorf("credit held after the ack of stream %d frame %d: %+v", s, f, cs)
						}
						if wantWM := uint64(f / batch * batch); ack.CommittedSeq != wantWM {
							t.Fatalf("stream %d frame %d: committed %d, want %d", s, f, ack.CommittedSeq, wantWM)
						}
						if op == stream.OpDelete {
							delete(want, key)
						} else {
							want[key] = name
						}
					}
				}
				for s, sc := range conns {
					done := roundTrip(sc, &wire.EndStream{StreamID: sc.id}, wire.KindStreamDone,
						fmt.Sprintf("stream %d end", s)).(*wire.StreamDone)
					if done.Watermark != frames {
						t.Errorf("stream %d: final watermark %d, want %d", s, done.Watermark, frames)
					}
				}

				var wantRows []string
				for k, v := range want {
					wantRows = append(wantRows, k+"|"+v)
				}
				sort.Strings(wantRows)
				var gotRows []string
				for _, r := range mustEng(t, st.eng, "SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER").Rows {
					gotRows = append(gotRows, r[0].Render()+"|"+r[1].Render())
				}
				sort.Strings(gotRows)
				if strings.Join(gotRows, "\n") != strings.Join(wantRows, "\n") {
					t.Errorf("target is not the last image per key:\n got:  %v\n want: %v", gotRows, wantRows)
				}
			})
		}
	}
}
