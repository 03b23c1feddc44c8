package stream

import (
	"errors"

	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"
)

// Op marks the kind of one CDC delta record.
type Op byte

// Delta operations. Each delta carries a full-row image; updates and
// inserts are both "latest image of this key", deletes carry the image so
// the key columns can be extracted.
const (
	OpInsert Op = 'I'
	OpUpdate Op = 'U'
	OpDelete Op = 'D'
)

// Valid reports whether o is a known delta operation.
func (o Op) Valid() bool { return o == OpInsert || o == OpUpdate || o == OpDelete }

// String returns the single-letter spelling of the op.
func (o Op) String() string { return string(rune(o)) }

// Framing errors are preallocated sentinels: NextDelta runs once per record
// on the steady-state path and must not construct errors there.
var (
	ErrBadOp     = errors.New("stream: invalid delta op marker")
	ErrTruncated = errors.New("stream: truncated delta record")
)

// AppendDelta appends the wire encoding of one delta — the op marker byte
// followed by the record in its data-format framing — to dst and returns
// the extended slice. The record must already carry its own framing: a
// trailing newline for vartext, the 2-byte length prefix and terminator for
// indicator mode.
func AppendDelta(dst []byte, op Op, record []byte) []byte {
	dst = append(dst, byte(op))
	return append(dst, record...)
}

// NextDelta splits the first delta off payload, returning its op, the
// record bytes (with format framing intact, ready for the DataConverter),
// and the remaining payload.
func NextDelta(payload []byte, format wire.DataFormat) (op Op, record, rest []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, nil, ErrTruncated
	}
	op = Op(payload[0])
	if !op.Valid() {
		return 0, nil, nil, ErrBadOp
	}
	body := payload[1:]
	switch format {
	case wire.FormatVartext:
		// A vartext record is one line, found by the same escape-aware scan
		// an import uses; tolerate a missing terminator on the final record.
		end := min(ltype.VartextLineEnd(body, 0)+1, len(body))
		return op, body[:end], body[end:], nil
	case wire.FormatIndicator:
		var ok bool
		if record, rest, ok = ltype.NextRecord(body); !ok {
			return 0, nil, nil, ErrTruncated
		}
		return op, record, rest, nil
	default:
		return 0, nil, nil, ErrBadOp
	}
}
