package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
)

func testLayout() *ltype.Layout {
	return &ltype.Layout{Name: "CustLayout", Fields: []ltype.Field{
		{Name: "CUST_ID", Type: ltype.VarChar(5)},
		{Name: "CUST_NAME", Type: ltype.VarChar(50)},
		{Name: "JOIN_DATE", Type: ltype.VarChar(10)},
	}}
}

func allMessages() []Message {
	return []Message{
		&Logon{Host: "h", User: "u", Password: "p", Account: "a"},
		&LogonOK{SessionID: 7, ServerVersion: "edw-1.0"},
		&Logoff{},
		&RunSQL{SQL: "SELECT 1"},
		&StmtSuccess{ActivityCount: 42, Warning: "w"},
		&RecordHeader{Layout: testLayout()},
		&Records{Count: 3, Payload: []byte{1, 2, 3}},
		&EndStatement{},
		&Failure{Code: 3807, Message: "table does not exist"},
		&BeginLoad{
			Table: "PROD.CUSTOMER", ErrTableET: "PROD.CUSTOMER_ET",
			ErrTableUV: "PROD.CUSTOMER_UV", Layout: testLayout(),
			Format: FormatVartext, Delim: '|', Sessions: 4,
			MaxErrors: 10, MaxRetries: 20,
		},
		&LoadOK{JobID: 9},
		&AttachLoad{JobID: 9, SessionSeq: 2},
		&AttachOK{},
		&DataChunk{JobID: 9, Seq: 5, FirstRow: 101, Count: 2, Payload: []byte("x|y\nz|w\n")},
		&ChunkAck{Seq: 5},
		&EndAcquire{JobID: 9},
		&AcquireDone{JobID: 9, RowsStaged: 100, DataErrors: 2},
		&ApplyDML{JobID: 9, Label: "InsApply", SQL: "insert into t values (:a)"},
		&ApplyResult{JobID: 9, Inserted: 90, Updated: 1, Deleted: 2, ErrorsET: 3, ErrorsUV: 4},
		&EndLoad{JobID: 9},
		&LoadDone{JobID: 9},
		&BeginExport{SQL: "select * from t", Sessions: 2, Format: FormatVartext, Delim: ','},
		&ExportOK{JobID: 11, Layout: testLayout()},
		&ExportChunkRq{JobID: 11, Seq: 3},
		&ExportChunk{JobID: 11, Seq: 3, Count: 10, EOF: true, Payload: []byte("data")},
		&EndExport{JobID: 11},
		&BeginStream{
			Name: "orders-cdc", Table: "PROD.ORDERS", ErrTableET: "PROD.ORDERS_ET",
			Layout: testLayout(), Format: FormatVartext, Delim: '|',
			SQL: "insert into orders values (:a)", LatencyTargetMS: 2000, MaxErrors: 25,
		},
		&StreamOK{StreamID: 13, ResumeSeq: 400, BatchHint: 64},
		&DeltaFrame{StreamID: 13, FirstSeq: 401, Count: 2, Payload: []byte("I|a|b\nD|c|d\n")},
		&DeltaAck{StreamID: 13, Seq: 401, CommittedSeq: 400, BatchHint: 128},
		&EndStream{StreamID: 13},
		&StreamDone{StreamID: 13, Watermark: 402, Inserted: 1, Updated: 0, Deleted: 1, ErrorsET: 2, Replayed: 3},
		&TraceSpans{JobID: 9, Spans: []obs.Span{
			{
				ID: 0xA1, Parent: 0xA0, Proc: "etlclient", Stage: "send_chunk",
				Worker: "sess-1", Start: time.Unix(0, 1700000000000000000),
				Dur: 250 * time.Millisecond, Rows: 100, Bytes: 4096,
			},
			{
				ID: 0xA2, Parent: 0xA0, Proc: "etlclient", Stage: "read_source",
				Start: time.Unix(0, 1700000000100000000), Dur: time.Millisecond,
				Depth: 2, Err: "short read",
			},
		}},
		&TraceAck{JobID: 9, Added: 2},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, msg := range allMessages() {
		f, err := Encode(123, msg)
		if err != nil {
			t.Fatalf("%s encode: %v", msg.Kind(), err)
		}
		if f.Kind != msg.Kind() || f.Session != 123 {
			t.Errorf("%s: frame kind/session wrong: %+v", msg.Kind(), f)
		}
		got, err := Decode(f)
		if err != nil {
			t.Fatalf("%s decode: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", msg.Kind(), got, msg)
		}
	}
}

// TestKindSurfaces: every assigned frame kind has a codec arm in newMessage,
// a diagnostic name in Kind.String, and a message in allMessages, so
// TestMessageRoundTrip and TestDecodeTruncatedBodies cover it. A kind added
// without all three fails here, not on a peer's first frame.
func TestKindSurfaces(t *testing.T) {
	listed := make(map[Kind]bool)
	for _, m := range allMessages() {
		listed[m.Kind()] = true
	}
	for k := KindInvalid + 1; k <= kindMax; k++ {
		if m := newMessage(k); m == nil || m.Kind() != k {
			t.Errorf("kind %d: newMessage has no arm for it", uint8(k))
		}
		if name := k.String(); strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d: Kind.String has no name for it", uint8(k))
		}
		if !listed[k] {
			t.Errorf("%s: no message in allMessages, so no round-trip test covers it", k)
		}
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	for _, msg := range allMessages() {
		f, err := Encode(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Body) == 0 {
			continue
		}
		for cut := 0; cut < len(f.Body); cut++ {
			trunc := Frame{Kind: f.Kind, Session: 1, Body: f.Body[:cut]}
			if _, err := Decode(trunc); err == nil {
				t.Errorf("%s: truncation at %d of %d accepted", msg.Kind(), cut, len(f.Body))
				break
			}
		}
		// trailing garbage must also be rejected
		extra := Frame{Kind: f.Kind, Session: 1, Body: append(append([]byte{}, f.Body...), 0xFF)}
		if _, err := Decode(extra); err == nil {
			t.Errorf("%s: trailing garbage accepted", msg.Kind())
		}
	}
}

func TestFrameReadWrite(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Kind: KindLogon, Session: 1, Body: []byte("abc")},
		{Kind: KindLogoff, Session: 2},
		{Kind: KindDataChunk, Session: 3, Body: bytes.Repeat([]byte{7}, 100000)},
	}
	for _, f := range frames {
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(enc)
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Session != want.Session || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

func TestReadFrameErrors(t *testing.T) {
	// bad version
	hdr := make([]byte, HeaderSize)
	hdr[0] = 99
	hdr[1] = byte(KindLogon)
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("bad version accepted")
	}
	// bad kind
	hdr[0] = Version
	hdr[1] = 200
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("bad kind accepted")
	}
	// oversized body
	f := Frame{Kind: KindRecords, Body: make([]byte, MaxBodySize+1)}
	if _, err := AppendFrame(nil, f); err == nil {
		t.Error("oversized body accepted")
	}
	// truncated header
	if _, err := ReadFrame(bytes.NewReader([]byte{Version})); err == nil {
		t.Error("truncated header accepted")
	}
}

// frameStream encodes every allMessages entry as one frame, the i-th on
// session i, back to back as a peer would send them.
func frameStream(t *testing.T) ([]Message, []byte) {
	t.Helper()
	var stream []byte
	msgs := allMessages()
	for i, m := range msgs {
		f, err := Encode(uint32(i), m)
		if err != nil {
			t.Fatal(err)
		}
		if stream, err = AppendFrame(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	return msgs, stream
}

// coalesce frames r the way Conn.RecvT does, ReadFrame over a bufio.Reader,
// and decodes every frame up to a clean EOF.
func coalesce(r io.Reader) ([]Message, error) {
	br := bufio.NewReader(r)
	var out []Message
	for {
		f, err := ReadFrame(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		m, err := Decode(f)
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

func TestCoalescerWholeStream(t *testing.T) {
	msgs, stream := frameStream(t)
	got, err := coalesce(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Errorf("coalesced %d messages, want the %d sent", len(got), len(msgs))
	}
}

// segmentReader hands out its bytes in random-sized reads, as TCP delivers
// segments.
type segmentReader struct {
	r    *rand.Rand
	rest []byte
}

func (s *segmentReader) Read(p []byte) (int, error) {
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.rest[:1+s.r.Intn(len(s.rest))])
	s.rest = s.rest[n:]
	return n, nil
}

func TestCoalescerArbitrarySegmentation(t *testing.T) {
	msgs, stream := frameStream(t)
	f := func(seed int64) bool {
		got, err := coalesce(&segmentReader{r: rand.New(rand.NewSource(seed)), rest: stream})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil && reflect.DeepEqual(got, msgs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCoalescerByteAtATime(t *testing.T) {
	f, err := Encode(5, &RunSQL{SQL: "SELECT * FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := AppendFrame(nil, f)
	got, err := coalesce(iotest.OneByteReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].(*RunSQL).SQL != "SELECT * FROM t" {
		t.Errorf("unexpected messages %#v", got)
	}
}

func TestFrameTraceContextRoundTrip(t *testing.T) {
	tc := obs.TraceContext{TraceID: 0xDEADBEEF01, SpanID: 0x42, Sampled: true}
	var buf bytes.Buffer
	frames := []Frame{
		{Kind: KindBeginLoad, Session: 1, Trace: tc, Body: []byte("abc")},
		{Kind: KindLogoff, Session: 2}, // untraced in between
		{Kind: KindDeltaFrame, Session: 3, Trace: obs.TraceContext{TraceID: 7}, Body: []byte("x")},
	}
	for _, f := range frames {
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(enc)
	}
	// The trace extension must not perturb the body framing: an untraced
	// frame's total size is header+body exactly.
	wire := buf.Bytes()
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Trace != want.Trace {
			t.Errorf("frame %d trace: got %+v want %+v", i, got.Trace, want.Trace)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Errorf("frame %d body mismatch", i)
		}
	}
	// Byte-at-a-time through a Conn's buffered reader: the 17-byte
	// extension must survive arbitrary segmentation.
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(wire)))
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("segmented frame %d: %v", i, err)
		}
		if got.Trace != want.Trace || !bytes.Equal(got.Body, want.Body) {
			t.Errorf("segmented frame %d mismatch: %+v", i, got)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Errorf("after the last frame: %v, want EOF", err)
	}
}

func TestFrameReservedFlagsRejected(t *testing.T) {
	enc, err := AppendFrame(nil, Frame{Kind: KindLogoff, Session: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Set a reserved flag bit (bit 1) in the header.
	binary.BigEndian.PutUint16(enc[2:], 0x0002)
	if _, err := ReadFrame(bytes.NewReader(enc)); err == nil {
		t.Error("reserved header flag accepted")
	}
}

func TestFrameTruncatedTraceContext(t *testing.T) {
	tc := obs.TraceContext{TraceID: 5, SpanID: 6, Sampled: true}
	enc, err := AppendFrame(nil, Frame{Kind: KindRunSQL, Session: 1, Trace: tc, Body: []byte("SELECT 1")})
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the 17-byte extension.
	if _, err := ReadFrame(bytes.NewReader(enc[:HeaderSize+5])); err == nil {
		t.Error("truncated trace context accepted")
	}
	// Corrupt the extension's reserved flag bits.
	enc[HeaderSize+16] |= 0x80
	if _, err := ReadFrame(bytes.NewReader(enc)); err == nil {
		t.Error("reserved trace-context flag accepted")
	}
}

func TestConnSendTRecvT(t *testing.T) {
	c1, c2 := net.Pipe()
	server, client := NewConn(c1), NewConn(c2)
	defer server.Close()
	defer client.Close()
	tc := obs.TraceContext{TraceID: 0xABCD, SpanID: 0x11, Sampled: true}
	go func() {
		_ = client.SendT(3, &BeginLoad{Table: "t", Layout: testLayout(), Sessions: 1}, tc)
		_ = client.Send(3, &EndLoad{JobID: 1})
	}()
	m, sess, got, err := server.RecvT()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*BeginLoad); !ok || sess != 3 {
		t.Fatalf("unexpected message %#v sess %d", m, sess)
	}
	if got != tc {
		t.Errorf("trace context: got %+v want %+v", got, tc)
	}
	m, _, got, err = server.RecvT()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*EndLoad); !ok {
		t.Fatalf("unexpected message %#v", m)
	}
	if got.Valid() {
		t.Errorf("untraced frame carried context %+v", got)
	}
}

func TestCoalescerBadHeader(t *testing.T) {
	bad := make([]byte, HeaderSize)
	bad[0] = 0xAA
	if _, err := coalesce(bytes.NewReader(bad)); err == nil {
		t.Error("bad header accepted")
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn := NewConn(nc)
		defer conn.Close()
		m, sess, err := conn.Recv()
		if err != nil {
			done <- err
			return
		}
		logon, ok := m.(*Logon)
		if !ok || logon.User != "alice" || sess != 0 {
			done <- errFromf("unexpected logon %#v sess %d", m, sess)
			return
		}
		done <- conn.Send(1, &LogonOK{SessionID: 1, ServerVersion: "test"})
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(0, &Logon{User: "alice"}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Expect(KindLogonOK)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*LogonOK).SessionID != 1 {
		t.Errorf("unexpected session id %d", m.(*LogonOK).SessionID)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// nopConn is a Conn's byte stream for tests that only read or only write.
type nopConn struct {
	io.Reader
	io.Writer
}

func (nopConn) Close() error { return nil }

// repeatReader hands out frame again and again, forever.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// bytesPerRun reports the heap bytes f allocates per call, averaged over
// runs after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestConnPayloadAllocBound: a DWP payload is copied once per side. SendT
// encodes a traced message's header, extension and body in place into one
// buffer, and RecvT reads its body into a fresh buffer whose Payload is a
// view. Beyond the Conn's two bufio buffers, which NewConn allocates, SendT
// allocates one payload-sized buffer per message, and so does RecvT for a
// body of at most 256 KiB, such as a default 500-row DataChunk. A larger
// body, such as a default 4096-row ExportChunk, is read in steps doubling
// from 256 KiB (bincodec.ReadBody), so RecvT also allocates the steps below
// its size.
func TestConnPayloadAllocBound(t *testing.T) {
	tc := obs.TraceContext{TraceID: 0xABCD, SpanID: 0x11, Sampled: true}
	for _, tt := range []struct {
		name    string
		msg     Message
		payload int
	}{
		{"DataChunk126KiB", &DataChunk{JobID: 9, Seq: 5, FirstRow: 101, Count: 4, Payload: bytes.Repeat([]byte("x|y\n"), 126<<10/4)}, 126 << 10},
		{"ExportChunk4096Rows", &ExportChunk{JobID: 9, Seq: 2, Count: 4096, Payload: bytes.Repeat([]byte(strings.Repeat("y", 251)+"\n"), 4096)}, 4096 * 252},
	} {
		t.Run(tt.name, func(t *testing.T) {
			slack := float64(tt.payload) / 8
			var sent bytes.Buffer
			sender := NewConn(nopConn{Writer: &sent})
			sendBytes := bytesPerRun(20, func() {
				sent.Reset()
				if err := sender.SendT(3, tt.msg, tc); err != nil {
					t.Fatal(err)
				}
			})

			receiver := NewConn(nopConn{Reader: &repeatReader{frame: bytes.Clone(sent.Bytes())}})
			var got Message
			recvBytes := bytesPerRun(20, func() {
				m, sess, gotTC, err := receiver.RecvT()
				if err != nil || sess != 3 || gotTC != tc {
					t.Fatalf("RecvT: session %d, trace %+v, %v", sess, gotTC, err)
				}
				got = m
			})
			if !reflect.DeepEqual(got, tt.msg) {
				t.Fatalf("the received %s differs from the one sent", tt.msg.Kind())
			}
			t.Logf("heap bytes per %d-byte payload: SendT %.0f, RecvT %.0f", tt.payload, sendBytes, recvBytes)
			if bound := float64(tt.payload) + slack; sendBytes > bound {
				t.Errorf("SendT allocates %.0f B per message, want at most one payload-sized buffer (%.0f B)", sendBytes, bound)
			}
			if bound := float64(readBodyBytes(tt.payload)) + slack; recvBytes > bound {
				t.Errorf("RecvT allocates %.0f B per message, want at most the body read's buffers (%.0f B)", recvBytes, bound)
			}
		})
	}
}

// readBodyBytes is what bincodec.ReadBody allocates for an n-byte body read
// into no buffer: one n-byte buffer, plus, for n over 256 KiB, each 256 KiB,
// 512 KiB, … step it doubled through below n.
func readBodyBytes(n int) int {
	total := n
	for step := 256 << 10; step < n; step *= 2 {
		total += step
	}
	return total
}

func TestExpectFailure(t *testing.T) {
	c1, c2 := net.Pipe()
	server, client := NewConn(c1), NewConn(c2)
	defer server.Close()
	defer client.Close()
	go func() {
		server.Send(0, &Failure{Code: 2666, Message: "bad date"})
	}()
	_, err := client.Expect(KindStmtSuccess)
	f, ok := err.(*Failure)
	if !ok {
		t.Fatalf("want *Failure, got %T %v", err, err)
	}
	if f.Code != 2666 {
		t.Errorf("code %d, want 2666", f.Code)
	}
}

func TestExpectWrongKind(t *testing.T) {
	c1, c2 := net.Pipe()
	server, client := NewConn(c1), NewConn(c2)
	defer server.Close()
	defer client.Close()
	go func() { server.Send(0, &EndStatement{}) }()
	if _, err := client.Expect(KindStmtSuccess); err == nil {
		t.Error("wrong kind accepted")
	}
}

func errFromf(format string, args ...any) error {
	return &Failure{Code: 1, Message: fmt.Sprintf(format, args...)}
}
