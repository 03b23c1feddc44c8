package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"etlvirt/internal/ltype"
)

// codec encodes or decodes one message body. Bodies are sequences of
// primitive fields: fixed-width big-endian integers, length-prefixed strings
// and byte slices. Each message states its field list once, in a body
// method that hands the codec a pointer to every field in wire order; the
// codec either appends the field (encoding) or fills it from the body
// (decoding), so the two directions cannot disagree.
type codec struct {
	b   []byte // encoding: the body so far; decoding: the bytes not yet read
	dec bool
	err error // the first error, which Encode or Decode returns
}

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n body bytes when decoding. After an error, or on a
// short body, where it records a truncation error naming what was being
// read, it returns nil.
func (c *codec) take(n int, what string) []byte {
	if c.err == nil && len(c.b) < n {
		c.err = fmt.Errorf("wire: truncated body reading %s", what)
	}
	if c.err != nil {
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if p := c.take(1, "u8"); p != nil {
		*v = p[0]
	}
}

func (c *codec) u16(v *uint16) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	} else if p := c.take(2, "u16"); p != nil {
		*v = binary.BigEndian.Uint16(p)
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	} else if p := c.take(4, "u32"); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8, "u64"); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

func (c *codec) bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.u8(&u)
	if c.dec {
		*v = u != 0
	}
}

// size carries the u32 length prefix of a string or byte slice.
func (c *codec) size(n int, tooLong string) int {
	if !c.dec && n > math.MaxUint32 {
		c.fail(errors.New(tooLong))
	}
	u := uint32(n)
	c.u32(&u)
	return int(u)
}

func (c *codec) str(s *string) {
	n := c.size(len(*s), "wire: string too long")
	if !c.dec {
		c.b = append(c.b, *s...)
	} else if p := c.take(n, "string"); c.err == nil {
		*s = string(p)
	}
}

// bytes carries a length-prefixed byte slice. Decoding copies it, so the
// message never aliases the frame body.
func (c *codec) bytes(b *[]byte) {
	n := c.size(len(*b), "wire: byte slice too long")
	if !c.dec {
		c.b = append(c.b, *b...)
	} else if p := c.take(n, "bytes"); c.err == nil {
		*b = make([]byte, n)
		copy(*b, p)
	}
}

// count carries a slice length as a u32 and returns the number of elements
// to walk. Decoding bounds it by what the rest of the body could hold at
// minSize bytes per element, plus one whose read runs dry and reports the
// short body, so a forged count cannot force a large allocation.
func (c *codec) count(n, minSize int) int {
	u := uint32(n)
	c.u32(&u)
	if max := len(c.b) / minSize; c.dec && int(u) > max {
		return max + 1
	}
	return int(u)
}

// done ends a decode: the body must have been consumed exactly.
func (c *codec) done() error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in body", len(c.b))
	}
	return c.err
}

// layout carries a record layout: its name, a u16 field count, then per
// field its name, kind, length, precision, scale and charset.
func (c *codec) layout(p **ltype.Layout) {
	if c.dec {
		*p = &ltype.Layout{}
	}
	l := *p
	c.str(&l.Name)
	if len(l.Fields) > math.MaxUint16 {
		c.fail(errors.New("wire: layout has too many fields"))
	}
	n := uint16(len(l.Fields))
	c.u16(&n)
	for i := 0; i < int(n) && c.err == nil; i++ {
		if c.dec {
			l.Fields = append(l.Fields, ltype.Field{})
		}
		f := &l.Fields[i]
		length, prec, scale := uint32(f.Type.Length), uint8(f.Type.Precision), uint8(f.Type.Scale)
		c.str(&f.Name)
		c.u8((*uint8)(&f.Type.Kind))
		c.u32(&length)
		c.u8(&prec)
		c.u8(&scale)
		c.u8((*uint8)(&f.Type.CharSet))
		if c.dec {
			f.Type.Length, f.Type.Precision, f.Type.Scale = int(length), int(prec), int(scale)
		}
	}
}
