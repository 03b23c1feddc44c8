// Package bincodec holds the primitives that both of the virtualizer's
// binary protocols state their messages with: DWP (internal/wire), which
// faces the legacy clients, and the CDW protocol (internal/cdwnet), which
// faces the warehouse. A field is a fixed-width big-endian integer, a
// u32-length-prefixed string or byte slice, or a u32 element count; a body
// ends exactly where its last field does. Each protocol keeps its own frame
// header, its own message field lists and its own error prefix.
package bincodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Codec encodes or decodes one message body. Each message states its field
// list once, in a method that hands the codec a pointer to every field in
// wire order; the codec either appends the field (encoding) or fills it from
// the body (decoding), so the two directions cannot disagree. The first
// error sticks: once set, decoding fills no more fields from the body.
type Codec struct {
	b   []byte // encoding: the bytes so far; decoding: the bytes not yet read
	dec bool
	err error
}

// Encoder returns a codec that appends fields to dst.
func Encoder(dst []byte) Codec { return Codec{b: dst} }

// Decoder returns a codec that reads fields from body. A decoded byte slice
// is a view of body, not a copy: body must stay unchanged for as long as the
// message is used.
func Decoder(body []byte) Codec { return Codec{b: body, dec: true} }

// Decoding reports whether c fills fields from a body.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first error.
func (c *Codec) Err() error { return c.err }

// Left returns the number of body bytes not yet read.
func (c *Codec) Left() int { return len(c.b) }

// Fail records err unless an earlier error is already recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Encoded returns the bytes appended so far and the first error.
func (c *Codec) Encoded() ([]byte, error) { return c.b, c.err }

// Done ends a decode: the body must have been consumed exactly.
func (c *Codec) Done() error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("%d trailing bytes in body", len(c.b))
	}
	return c.err
}

// take consumes the next n body bytes when decoding. After an error, or on a
// short body, where it records a truncation error naming what was being
// read, it returns nil.
func (c *Codec) take(n int, what string) []byte {
	if c.err == nil && len(c.b) < n {
		c.err = fmt.Errorf("truncated body reading %s", what)
	}
	if c.err != nil {
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// uint reads the next n-byte big-endian integer, n being 1, 2, 4 or 8.
// After an error, or on a short body, it returns 0. Decoding out of line
// keeps U8 … Int small enough to inline.
func (c *Codec) uint(n int, what string) uint64 {
	p := c.take(n, what)
	switch len(p) {
	case 1:
		return uint64(p[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(p))
	case 4:
		return uint64(binary.BigEndian.Uint32(p))
	case 8:
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// U8 carries one byte.
func (c *Codec) U8(v *uint8) {
	if c.dec {
		*v = uint8(c.uint(1, "u8"))
		return
	}
	c.b = append(c.b, *v)
}

// U16 carries a big-endian uint16.
func (c *Codec) U16(v *uint16) {
	if c.dec {
		*v = uint16(c.uint(2, "u16"))
		return
	}
	c.b = binary.BigEndian.AppendUint16(c.b, *v)
}

// U32 carries a big-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.dec {
		*v = uint32(c.uint(4, "u32"))
		return
	}
	c.b = binary.BigEndian.AppendUint32(c.b, *v)
}

// U64 carries a big-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.dec {
		*v = c.uint(8, "u64")
		return
	}
	c.b = binary.BigEndian.AppendUint64(c.b, *v)
}

// I64 carries an int64 as its two's-complement U64.
func (c *Codec) I64(v *int64) {
	if c.dec {
		*v = int64(c.uint(8, "i64"))
		return
	}
	c.b = binary.BigEndian.AppendUint64(c.b, uint64(*v))
}

// Int carries an int as an I64.
func (c *Codec) Int(v *int) {
	if c.dec {
		*v = int(c.uint(8, "int"))
		return
	}
	c.b = binary.BigEndian.AppendUint64(c.b, uint64(*v))
}

// Bool carries a bool as one byte, 1 for true; decoding reads any non-zero
// byte as true.
func (c *Codec) Bool(v *bool) { *v = c.bool(*v) }

// bool carries one Bool out of line, which keeps Bool small enough to inline.
func (c *Codec) bool(b bool) bool {
	if c.dec {
		p := c.take(1, "bool")
		return p != nil && p[0] != 0
	}
	var u uint8
	if b {
		u = 1
	}
	c.b = append(c.b, u)
	return b
}

// size carries the u32 length prefix of a string, byte slice or count.
func (c *Codec) size(n int, tooLong string) int {
	if !c.dec && n > math.MaxUint32 {
		c.Fail(errors.New(tooLong))
	}
	u := uint32(n)
	c.U32(&u)
	return int(u)
}

// Str carries a u32-length-prefixed string. Decoding copies it.
func (c *Codec) Str(s *string) {
	n := c.size(len(*s), "string too long")
	if !c.dec {
		c.b = append(c.b, *s...)
	} else if p := c.take(n, "string"); c.err == nil {
		*s = string(p)
	}
}

// Bytes carries a u32-length-prefixed byte slice. Decoding sets *b to a view
// of the body (see Decoder); an empty slice decodes as an empty view.
func (c *Codec) Bytes(b *[]byte) {
	n := c.size(len(*b), "byte slice too long")
	if !c.dec {
		c.b = append(c.b, *b...)
	} else if p := c.take(n, "bytes"); c.err == nil {
		*b = p[:n:n] // a view that cannot be appended into the bytes after it
	}
}

// Count carries a slice length as a u32 and returns the number of elements
// to walk. Decoding bounds it by what the rest of the body could hold at
// minSize bytes per element, plus one whose read runs dry and reports the
// short body, so a forged count cannot force a large allocation.
func (c *Codec) Count(n, minSize int) int {
	u := c.size(n, "too many elements")
	if max := len(c.b) / minSize; c.dec && u > max {
		return max + 1
	}
	return u
}

// readStep is how far ahead of the bytes read ReadBody lets a body's buffer
// grow, so a forged length cannot force a large allocation.
const readStep = 256 << 10

// ReadBody reads an n-byte frame body from r. It reads into buf's backing
// array when that holds n bytes; otherwise it allocates a buffer of at least
// twice buf's capacity, so a reused buffer grows geometrically, but of at
// most readStep bytes, and doubles that as the bytes arrive: the buffer never
// outgrows twice what the peer has actually sent. Read into no buffer, a body
// of at most readStep bytes costs one allocation and no copy beyond the read;
// a larger body is copied into each doubled buffer, so all in all it
// allocates less than three times and copies less than twice its size. A
// body cut short is io.ErrUnexpectedEOF.
func ReadBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, 0, min(max(n, 2*cap(buf)), readStep))
	}
	buf = buf[:0]
	for len(buf) < n {
		m := len(buf)
		if m == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*m)), buf...)
		}
		k := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[m:k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		buf = buf[:k]
	}
	return buf, nil
}

// maxKept is the largest buffer Keep lets a connection hold between
// messages.
const maxKept = 64 << 10

// Keep returns b emptied for the next message on the same connection, or nil
// when b grew past 64 KiB: a connection holds no large buffer while idle.
func Keep(b []byte) []byte {
	if cap(b) > maxKept {
		return nil
	}
	return b[:0]
}
