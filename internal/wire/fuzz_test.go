package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"etlvirt/internal/obs"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader every Conn runs,
// framing them as Conn.RecvT does until the first error. It must never
// panic, never hand out a frame with an unassigned kind or an oversized
// body, and every frame it returns must survive AppendFrame → ReadFrame
// unchanged.
func FuzzReadFrame(f *testing.F) {
	good, _ := Encode(1, &RunSQL{SQL: "SELECT 1"})
	enc, _ := AppendFrame(nil, good)
	f.Add(enc)
	f.Add([]byte{Version, byte(KindLogon), 0, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte("garbage that is not a frame at all"))
	good.Trace = obs.TraceContext{TraceID: 9, SpanID: 3, Sampled: true}
	traced, _ := AppendFrame(enc, good)
	f.Add(traced)
	// A trace extension with a zero trace ID (here span ID 5) is untraced.
	zero := append([]byte{Version, byte(KindLogoff), 0, 1, 0, 0, 0, 1, 0, 0, 0, 0}, make([]byte, obs.TraceContextWireSize)...)
	zero[HeaderSize+15] = 5
	f.Add(zero)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			fr, err := ReadFrame(br)
			if err != nil {
				return
			}
			if fr.Kind == KindInvalid || fr.Kind > kindMax {
				t.Fatalf("ReadFrame returned invalid kind %d", fr.Kind)
			}
			if len(fr.Body) > MaxBodySize {
				t.Fatalf("ReadFrame returned a %d-byte body", len(fr.Body))
			}
			again, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("AppendFrame of a read frame: %v", err)
			}
			back, err := ReadFrame(bytes.NewReader(again))
			if err != nil || !reflect.DeepEqual(back, fr) {
				t.Fatalf("frame %+v did not survive a rewrite: %+v, %v", fr, back, err)
			}
		}
	})
}

// FuzzDecode checks message decoding never panics on arbitrary bodies, and
// that a body it accepts is one the codec would write: re-encoding and
// decoding the message gives it back unchanged.
func FuzzDecode(f *testing.F) {
	for _, m := range []Message{
		&Logon{User: "u"},
		&BeginLoad{Table: "t", Layout: testLayout(), Sessions: 2},
		&DataChunk{JobID: 1, Payload: []byte("x|y\n")},
		&ExportChunk{JobID: 1, EOF: true},
	} {
		fr, _ := Encode(0, m)
		f.Add(uint8(fr.Kind), fr.Body)
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		k := Kind(kind)
		if k == KindInvalid || k > kindMax {
			return
		}
		m, err := Decode(Frame{Kind: k, Body: body})
		if err != nil {
			return
		}
		fr, err := Encode(0, m)
		if err != nil {
			t.Fatalf("%s: re-encoding an accepted body: %v", k, err)
		}
		back, err := Decode(fr)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%s: re-encoded body decodes to %#v, %v; want %#v", k, back, err, m)
		}
	})
}
