package cdwnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"etlvirt/internal/cdw"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/messages.golden from the codec")

// namedMessage is one message of the protocol contract.
type namedMessage struct {
	name string
	m    message
}

// everyKindBatch holds one value of every datum kind, with the edge values
// each payload must carry: NULL, an empty string, nil bytes, a negative
// decimal and a NaN float.
func everyKindBatch() *rowBatch {
	return &rowBatch{Rows: [][]cdw.Datum{
		{cdw.Null(), cdw.BoolD(true), cdw.IntD(-7), cdw.FloatD(math.NaN()), cdw.DecimalD(-12345, 2),
			cdw.StringD(""), cdw.DateD(2020, 2, 29), cdw.TimeD(3600), cdw.TimestampD(-1), cdw.BytesD(nil)},
		{cdw.IntD(1), cdw.BoolD(false), cdw.IntD(math.MaxInt64), cdw.FloatD(-0.5), cdw.DecimalD(0, 0),
			cdw.StringD("héllo"), cdw.DateD(1969, 12, 31), cdw.TimeD(0), cdw.TimestampD(1 << 50), cdw.BytesD([]byte{0, 1, 255})},
	}, Last: true}
}

// contractMessages are the messages testdata/messages.golden pins.
func contractMessages() []namedMessage {
	return []namedMessage{
		{"request", &request{SQL: "SELECT a FROM t", FetchSize: 64, TraceID: 0xBEEF, SpanID: 0x12, Sampled: true}},
		{"range_request", &request{SQL: "DELETE FROM t WHERE __seq BETWEEN :__lo AND :__hi", Range: true, Lo: 3, Hi: 400}},
		{"describe_request", &request{Describe: "s.t"}},
		{"error_header", &responseHeader{ErrCode: cdw.CodeNoSuchObject, ErrMsg: "table t does not exist", ErrField: "t", ErrRow: -1, EngineNanos: 1500}},
		{"rows_header", &responseHeader{Columns: []ResultCol{{Name: "a", Type: cdw.ColType{Kind: cdw.KInt}},
			{Name: "b", Type: cdw.ColType{Kind: cdw.KString, Length: 50, National: true}}}, Activity: 2, HasRows: true, EngineNanos: 9}},
		{"describe_header", &responseHeader{Meta: &TableMeta{
			Columns:    []ResultCol{{Name: "k", Type: cdw.ColType{Kind: cdw.KString, Length: 5}}, {Name: "v", Type: cdw.ColType{Kind: cdw.KDecimal, Precision: 10, Scale: 2}}},
			NotNull:    []bool{true, false},
			Defaults:   []string{"", "0"},
			PrimaryKey: []string{"k"},
			Unique:     [][]string{{"v"}, {"k", "v"}},
			Rows:       1,
		}, EngineNanos: 7}},
		{"batch", everyKindBatch()},
		{"empty_last_batch", &rowBatch{Last: true}},
	}
}

// newMessageLike returns an empty message of m's type.
func newMessageLike(m message) message {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(message)
}

// sameMessage compares two messages field by field, floats by their bits so
// that a NaN equals itself.
func sameMessage(a, b message) bool {
	ba, ok := a.(*rowBatch)
	if !ok {
		return reflect.DeepEqual(a, b)
	}
	bb := b.(*rowBatch)
	if ba.Last != bb.Last || len(ba.Rows) != len(bb.Rows) {
		return false
	}
	for i := range ba.Rows {
		if len(ba.Rows[i]) != len(bb.Rows[i]) {
			return false
		}
		for j, x := range ba.Rows[i] {
			y := bb.Rows[i][j]
			if x.Kind != y.Kind || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) ||
				x.S != y.S || !bytes.Equal(x.B, y.B) || x.Bool != y.Bool || x.Scale != y.Scale {
				return false
			}
		}
	}
	return true
}

// TestMessageEncodingGolden pins the frame bytes of every contract message
// against testdata/messages.golden, one "<name> <hex frame>" line each.
// Round trips cannot see a field order swapped on both sides of the codec;
// this can. The file is the protocol: a change to it is a protocol change.
func TestMessageEncodingGolden(t *testing.T) {
	var lines []string
	for _, nm := range contractMessages() {
		b, err := appendFrame(nil, nm.m)
		if err != nil {
			t.Fatalf("%s: %v", nm.name, err)
		}
		lines = append(lines, nm.name+" "+hex.EncodeToString(b))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile("testdata/messages.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/messages.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("frames differ from testdata/messages.golden:\n got\n%s\nwant\n%s", got, want)
	}
}

// TestCodecRoundTrip decodes every contract message back to itself.
func TestCodecRoundTrip(t *testing.T) {
	for _, nm := range contractMessages() {
		b, err := appendFrame(nil, nm.m)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(bytes.NewReader(b), nil)
		if err != nil {
			t.Fatal(err)
		}
		back := newMessageLike(nm.m)
		if err := decodeBody(body, back); err != nil {
			t.Fatalf("%s: %v", nm.name, err)
		}
		if !sameMessage(back, nm.m) {
			t.Errorf("%s: decoded %+v, want %+v", nm.name, back, nm.m)
		}
	}
}

// TestCodecRejects checks the frames a peer must never accept: a torn
// frame, an oversized length, an unknown datum kind, a ragged or
// column-less batch, and trailing bytes.
func TestCodecRejects(t *testing.T) {
	good, _ := appendFrame(nil, everyKindBatch())
	for n := 1; n < len(good); n++ {
		body, err := readFrame(bytes.NewReader(good[:n]), nil)
		if err == nil {
			err = decodeBody(body, &rowBatch{})
		}
		if err == nil {
			t.Fatalf("a frame torn at byte %d of %d was accepted", n, len(good))
		}
	}
	huge := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if _, err := readFrame(bytes.NewReader(huge), nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized frame: %v", err)
	}
	unknown := []byte{0, 0, 0, 1, 0, 0, 0, 1, 99, 1}
	if err := decodeBody(unknown, &rowBatch{}); err == nil || !strings.Contains(err.Error(), "unknown datum kind 99") {
		t.Errorf("unknown datum kind: %v", err)
	}
	noCols := []byte{0, 0, 0, 0, 0, 0, 0, 3, 1}
	if err := decodeBody(noCols, &rowBatch{}); err == nil {
		t.Error("a batch of rows without columns was accepted")
	}
	if _, err := appendFrame(nil, &rowBatch{Rows: [][]cdw.Datum{{cdw.IntD(1)}, {}}}); err == nil {
		t.Error("a ragged batch was encoded")
	}
	req, _ := appendFrame(nil, &request{SQL: "SELECT 1"})
	if err := decodeBody(append(req[4:], 0), &request{}); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: %v", err)
	}
}

// TestClientBrokenOnBadFrame answers a request with an oversized, a torn
// and an undecodable frame; each round trip fails and marks the client
// Broken, so the pool discards the connection.
func TestClientBrokenOnBadFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"oversized", binary.BigEndian.AppendUint32(nil, maxFrame+1)},
		{"torn", []byte{0, 0, 0, 40, 1, 2, 3}},
		{"undecodable", []byte{0, 0, 0, 2, 0, 0}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := readFrame(bufio.NewReader(conn), nil); err != nil {
				return
			}
			conn.Write(tc.reply)
		}()
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Exec("SELECT 1")
		if err == nil {
			t.Errorf("%s reply: round trip succeeded", tc.name)
		}
		if !c.Broken() {
			t.Errorf("%s reply: client not marked broken (err %v)", tc.name, err)
		}
		c.Close()
		ln.Close()
	}
}

// FuzzCdwnetCodec reads arbitrary bytes as one frame of a request, a
// response header or a row batch. Reading must never panic. A frame it
// accepts must re-encode and decode to an equal message, and every strict
// prefix of the re-encoded frame must be rejected.
func FuzzCdwnetCodec(f *testing.F) {
	for i, nm := range contractMessages() {
		b, err := appendFrame(nil, nm.m)
		if err != nil {
			f.Fatal(err)
		}
		kind := uint8(0)
		switch nm.m.(type) {
		case *responseHeader:
			kind = 1
		case *rowBatch:
			kind = 2
		}
		f.Add(kind, b)
		if i == 0 {
			f.Add(kind, b[:len(b)/2])
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var m message
		switch kind % 3 {
		case 0:
			m = &request{}
		case 1:
			m = &responseHeader{}
		default:
			m = &rowBatch{}
		}
		body, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if err := decodeBody(body, m); err != nil {
			return
		}
		again, err := appendFrame(nil, m)
		if err != nil {
			t.Fatalf("re-encoding an accepted %T: %v", m, err)
		}
		back := newMessageLike(m)
		body, err = readFrame(bytes.NewReader(again), nil)
		if err == nil {
			err = decodeBody(body, back)
		}
		if err != nil || !sameMessage(m, back) {
			t.Fatalf("%T %+v did not survive a round trip: %+v, %v", m, m, back, err)
		}
		for n := 0; n < len(again); n++ {
			body, err := readFrame(bytes.NewReader(again[:n]), nil)
			if err == nil {
				err = decodeBody(body, newMessageLike(m))
			}
			if err == nil {
				t.Fatalf("%T frame torn at %d of %d bytes was accepted", m, n, len(again))
			}
			if n == 0 && err != io.EOF {
				t.Fatalf("empty input: %v, want io.EOF", err)
			}
		}
	})
}
