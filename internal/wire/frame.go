// Package wire implements DWP, the legacy data-warehouse wire protocol that
// ETL clients speak to the EDW server — and that the virtualizer must speak
// to impersonate it (§3 of the paper).
//
// A DWP connection carries a stream of frames. Each frame has a fixed
// 12-byte header followed by a message body whose layout depends on the
// message kind. ReadFrame over a Conn's buffered reader reassembles complete
// frames from raw TCP segments: it is the paper's Coalescer process. Message
// bodies are stated against the primitives of internal/bincodec, which the
// CDW protocol shares.
//
// A decoded message's byte slices (the Payload fields) are views of the
// frame body that ReadFrame returned, and ReadFrame returns every body
// fresh: the receiver of a message owns its Payload and may keep, pool or
// modify it.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"etlvirt/internal/bincodec"
	"etlvirt/internal/obs"
)

// Version is the DWP protocol version this implementation speaks.
const Version = 3

// HeaderSize is the size of the fixed frame header in bytes.
const HeaderSize = 12

// MaxBodySize caps the body of a single frame. Data chunks larger than this
// must be split by the sender.
const MaxBodySize = 8 << 20

// Kind identifies the message carried by a frame.
type Kind uint8

// Frame kinds. The values are the protocol; do not renumber.
const (
	KindInvalid       Kind = 0
	KindLogon         Kind = 1  // client -> server: authenticate
	KindLogonOK       Kind = 2  // server -> client: session established
	KindLogoff        Kind = 3  // client -> server: end session
	KindRunSQL        Kind = 4  // client -> server: execute a SQL request
	KindStmtSuccess   Kind = 5  // server -> client: statement succeeded
	KindRecordHeader  Kind = 6  // server -> client: result-set layout
	KindRecords       Kind = 7  // server -> client: batch of result records
	KindEndStatement  Kind = 8  // server -> client: result set complete
	KindFailure       Kind = 9  // server -> client: request failed
	KindBeginLoad     Kind = 10 // client -> server: start an import job
	KindLoadOK        Kind = 11 // server -> client: job created
	KindAttachLoad    Kind = 12 // client -> server: attach a parallel data session
	KindAttachOK      Kind = 13 // server -> client: session attached to job
	KindDataChunk     Kind = 14 // client -> server: chunk of records
	KindChunkAck      Kind = 15 // server -> client: chunk received
	KindEndAcquire    Kind = 16 // client -> server: no more data on this session
	KindAcquireDone   Kind = 17 // server -> client: all data staged
	KindApplyDML      Kind = 18 // client -> server: run the application-phase DML
	KindApplyResult   Kind = 19 // server -> client: DML outcome and error counts
	KindEndLoad       Kind = 20 // client -> server: finish the job
	KindLoadDone      Kind = 21 // server -> client: job closed
	KindBeginExport   Kind = 22 // client -> server: start an export job
	KindExportOK      Kind = 23 // server -> client: export ready, layout attached
	KindExportChunkRq Kind = 24 // client -> server: request chunk N
	KindExportChunk   Kind = 25 // server -> client: chunk N payload
	KindEndExport     Kind = 26 // client -> server: finish export job
	KindBeginStream   Kind = 27 // client -> server: open a continuous CDC stream
	KindStreamOK      Kind = 28 // server -> client: stream open, resume watermark attached
	KindDeltaFrame    Kind = 29 // client -> server: micro-batch of CDC delta records
	KindDeltaAck      Kind = 30 // server -> client: delta frame accepted, commit watermark
	KindEndStream     Kind = 31 // client -> server: flush and close the stream
	KindStreamDone    Kind = 32 // server -> client: stream closed, final counters
	KindTraceSpans    Kind = 33 // client -> server: fold client-side trace spans into a job's timeline
	KindTraceAck      Kind = 34 // server -> client: spans folded
)

// kindMax is the highest assigned frame kind; ReadFrame rejects anything
// above it.
const kindMax = KindTraceAck

// flagTrace marks a frame that carries a trace-context extension: a 17-byte
// obs.TraceContext encoding between the header and the body. All other flag
// bits remain reserved and must be zero.
const flagTrace uint16 = 0x0001

// Frame is one protocol frame: a kind, the session it belongs to, an
// optional trace context propagated across the process boundary, and the
// encoded message body.
type Frame struct {
	Kind    Kind
	Session uint32
	Trace   obs.TraceContext // zero TraceID = frame carries no trace context
	Body    []byte
}

// header layout:
//
//	offset 0: version  uint8
//	offset 1: kind     uint8
//	offset 2: flags    uint16 BE (bit 0: trace-context extension follows; rest reserved, zero)
//	offset 4: session  uint32 BE
//	offset 8: bodyLen  uint32 BE
//
// When flag bit 0 is set, a 17-byte trace-context extension (trace ID u64
// BE, parent span ID u64 BE, flags u8) sits between the header and the body.
// bodyLen never includes the extension, so pre-tracing peers and new peers
// agree on the body framing of untraced frames.

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Body) > MaxBodySize {
		return dst, fmt.Errorf("wire: frame body %d exceeds max %d", len(f.Body), MaxBodySize)
	}
	dst = appendHeader(dst, f.Kind, f.Session, f.Trace, len(f.Body))
	return append(dst, f.Body...), nil
}

// appendMessage appends msg's whole frame to dst: the header, tc's extension
// when tc is valid, and the body encoded in place behind them.
func appendMessage(dst []byte, session uint32, msg Message, tc obs.TraceContext) ([]byte, error) {
	hdr := appendHeader(dst, msg.Kind(), session, tc, 0)
	c := bincodec.Encoder(hdr)
	msg.body(&c)
	b, err := c.Encoded()
	if err != nil {
		return dst, fmt.Errorf("wire: encoding %s: %w", msg.Kind(), err)
	}
	n := len(b) - len(hdr)
	if n > MaxBodySize {
		return dst, fmt.Errorf("wire: frame body %d exceeds max %d", n, MaxBodySize)
	}
	binary.BigEndian.PutUint32(b[len(dst)+8:], uint32(n))
	return b, nil
}

// appendHeader appends a frame header, and tc's extension when tc is valid.
func appendHeader(dst []byte, kind Kind, session uint32, tc obs.TraceContext, bodyLen int) []byte {
	var flags uint16
	if tc.Valid() {
		flags |= flagTrace
	}
	dst = append(dst, Version, byte(kind))
	dst = binary.BigEndian.AppendUint16(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, session)
	dst = binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
	if tc.Valid() {
		dst = tc.AppendWire(dst)
	}
	return dst
}

// ReadFrame reads one complete frame from r. Over a Conn's buffered
// reader it is the paper's Coalescer, which "forms complete TCP messages
// from the raw bytes received over the wire": io.ReadFull gathers each
// header, trace extension and body across however many segments carry it.
// The body is always a fresh buffer, grown as its bytes arrive
// (bincodec.ReadBody), so a forged length cannot force an allocation of
// more than 256 KiB. A body of at most 256 KiB is read into one buffer; a
// larger one is copied again at each doubling of its buffer.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if hdr[0] != Version {
		return Frame{}, fmt.Errorf("wire: bad protocol version %d", hdr[0])
	}
	f := Frame{Kind: Kind(hdr[1]), Session: binary.BigEndian.Uint32(hdr[4:])}
	if f.Kind == KindInvalid || f.Kind > kindMax {
		return Frame{}, fmt.Errorf("wire: invalid frame kind %d", hdr[1])
	}
	flags := binary.BigEndian.Uint16(hdr[2:])
	if flags&^flagTrace != 0 {
		return Frame{}, fmt.Errorf("wire: reserved header flags 0x%04x set", flags)
	}
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if bodyLen > MaxBodySize {
		return Frame{}, fmt.Errorf("wire: frame body %d exceeds max %d", bodyLen, MaxBodySize)
	}
	if flags&flagTrace != 0 {
		var ext [obs.TraceContextWireSize]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return Frame{}, fmt.Errorf("wire: truncated trace context: %w", err)
		}
		tc, err := obs.DecodeTraceContext(ext[:])
		if err != nil {
			return Frame{}, fmt.Errorf("wire: %w", err)
		}
		if tc.Valid() { // a zero trace ID carries no context (see Frame)
			f.Trace = tc
		}
	}
	body, err := bincodec.ReadBody(r, nil, bodyLen)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	f.Body = body
	return f, nil
}
