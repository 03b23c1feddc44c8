package obs

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// TraceContext is the compact cross-process trace identity carried on the
// wire: a 64-bit trace ID shared by every span of one distributed timeline,
// the span ID of the sender-side parent, and a sampling bit deciding whether
// downstream processes record spans for it. A zero TraceID means "no trace".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64 // parent span on the sending side; 0 = root
	Sampled bool
}

// Valid reports whether the context names a trace at all.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// String renders the trace ID the way /traces/{traceid} expects it.
func (tc TraceContext) String() string { return FormatTraceID(tc.TraceID) }

type jobKey struct{}

// WithJob returns ctx carrying t: a CDW round trip made under it propagates
// t.ChildContext() and is recorded as a span of t.
func WithJob(ctx context.Context, t *JobTrace) context.Context {
	return context.WithValue(ctx, jobKey{}, t)
}

// JobFrom returns the job trace ctx carries, nil when it carries none.
func JobFrom(ctx context.Context) *JobTrace {
	t, _ := ctx.Value(jobKey{}).(*JobTrace)
	return t
}

// TraceContextWireSize is the encoded size of a TraceContext: trace ID and
// parent span ID as big-endian u64s followed by one flags byte (bit 0 =
// sampled; remaining bits reserved, must be zero).
const TraceContextWireSize = 17

// AppendWire appends the 17-byte wire encoding.
func (tc TraceContext) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, tc.SpanID)
	var flags byte
	if tc.Sampled {
		flags |= 1
	}
	return append(dst, flags)
}

// DecodeTraceContext parses the 17-byte wire encoding.
func DecodeTraceContext(b []byte) (TraceContext, error) {
	if len(b) != TraceContextWireSize {
		return TraceContext{}, fmt.Errorf("trace context is %d bytes, want %d", len(b), TraceContextWireSize)
	}
	if b[16]&^1 != 0 {
		return TraceContext{}, fmt.Errorf("trace context flags 0x%02x use reserved bits", b[16])
	}
	return TraceContext{
		TraceID: binary.BigEndian.Uint64(b[0:8]),
		SpanID:  binary.BigEndian.Uint64(b[8:16]),
		Sampled: b[16]&1 != 0,
	}, nil
}

// FormatTraceID renders a trace ID as 16 lowercase hex digits.
func FormatTraceID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[id&0xF]
		id >>= 4
	}
	return string(buf[:])
}

// ParseTraceID accepts the hex form produced by FormatTraceID (with or
// without zero padding).
func ParseTraceID(s string) (uint64, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("trace id %q is not 1-16 hex digits", s)
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace id %q: %w", s, err)
	}
	return id, nil
}

// idState seeds the shared trace/span ID sequence once from the clock; IDs
// are then drawn lock-free and whitened with a splitmix64 finalizer so
// concurrent processes started in the same nanosecond still diverge quickly.
var idState atomic.Uint64

func nextID() uint64 {
	for {
		cur := idState.Load()
		if cur != 0 {
			break
		}
		idState.CompareAndSwap(0, uint64(time.Now().UnixNano())|1)
	}
	x := idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// NewTraceID mints a fresh non-zero trace ID.
func NewTraceID() uint64 { return nextID() }

// NewSpanID mints a fresh non-zero span ID.
func NewSpanID() uint64 { return nextID() }
