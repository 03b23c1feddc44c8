package cdwnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"etlvirt/internal/cdw"
)

// A frame is a u32 big-endian body length and the body. The body is one
// message: a request, a response header or a row batch, which the reader
// knows from where it stands in the exchange.
const (
	// maxFrame caps a frame body; a longer length is a corrupt frame.
	maxFrame = 1 << 30
	// connBufSize is the size of each connection's read and write buffer.
	connBufSize = 16 << 10
	// maxKeptScratch is the largest scratch buffer a connection keeps after
	// a message; a larger one, grown for a large row batch, is dropped.
	maxKeptScratch = 64 << 10
	// readStep is how far a frame body's buffer grows ahead of the bytes
	// read, so a forged length cannot force a large allocation.
	readStep = 64 << 10
)

// message is one frame body. Each message states its field list once, in a
// body method that hands the codec a pointer to every field in wire order;
// the codec either appends the field (encoding) or fills it from the body
// (decoding), so the two directions cannot disagree.
type message interface {
	body(c *codec)
}

// codec encodes or decodes one message body: fixed-width big-endian
// integers, u32-length-prefixed strings and byte slices, and u32 counts.
type codec struct {
	b   []byte // encoding: the frame so far; decoding: the bytes not yet read
	dec bool
	err error // the first error
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
		c.err = fmt.Errorf("cdwnet: truncated body reading %s", what)
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

func (c *codec) i64(v *int64) {
	u := uint64(*v)
	c.u64(&u)
	*v = int64(u)
}

// int carries an int as an i64.
func (c *codec) int(v *int) {
	i := int64(*v)
	c.i64(&i)
	*v = int(i)
}

func (c *codec) bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.u8(&u)
	*v = u != 0
}

// size carries the u32 length prefix of a string or byte slice.
func (c *codec) size(n int) int {
	if !c.dec && n > maxFrame {
		c.fail(errors.New("cdwnet: value too long"))
	}
	u := uint32(n)
	c.u32(&u)
	return int(u)
}

func (c *codec) str(s *string) {
	n := c.size(len(*s))
	if !c.dec {
		c.b = append(c.b, *s...)
	} else if p := c.take(n, "string"); c.err == nil {
		*s = string(p)
	}
}

// bytes carries a byte slice. Decoding copies it, so the message never
// aliases the frame body; an empty slice decodes as nil.
func (c *codec) bytes(b *[]byte) {
	n := c.size(len(*b))
	if !c.dec {
		c.b = append(c.b, *b...)
	} else if p := c.take(n, "bytes"); c.err == nil && n > 0 {
		*b = append([]byte(nil), p...)
	}
}

// count carries a slice length as a u32 and returns the number of elements
// to walk. Decoding bounds it by what the rest of the body could hold at
// minSize bytes per element, plus one whose read runs dry and reports the
// short body, so a forged count cannot force a large allocation.
func (c *codec) count(n, minSize int) int {
	if !c.dec && n > math.MaxUint32 {
		c.fail(errors.New("cdwnet: too many elements"))
	}
	u := uint32(n)
	c.u32(&u)
	if max := len(c.b) / minSize; c.dec && int(u) > max {
		return max + 1
	}
	return int(u)
}

// strs carries a string list; an empty list decodes as nil.
func (c *codec) strs(v *[]string) {
	n := c.count(len(*v), 4)
	if c.dec && n > 0 {
		*v = make([]string, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.str(&(*v)[i])
	}
}

// cols carries a result schema: per column its name and type.
func (c *codec) cols(v *[]ResultCol) {
	n := c.count(len(*v), 4+1+3*8+1)
	if c.dec && n > 0 {
		*v = make([]ResultCol, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		col := &(*v)[i]
		c.str(&col.Name)
		k := uint8(col.Type.Kind)
		c.u8(&k)
		col.Type.Kind = cdw.DKind(k)
		c.int(&col.Type.Length)
		c.int(&col.Type.Precision)
		c.int(&col.Type.Scale)
		c.bool(&col.Type.National)
	}
}

// datum carries a value as its kind and the one payload field that kind
// uses (see cdw.Datum).
func (c *codec) datum(d *cdw.Datum) {
	k := uint8(d.Kind)
	c.u8(&k)
	if c.dec {
		*d = cdw.Datum{Kind: cdw.DKind(k)}
	}
	switch d.Kind {
	case cdw.KNull:
	case cdw.KBool:
		c.bool(&d.Bool)
	case cdw.KInt, cdw.KDate, cdw.KTime, cdw.KTimestamp:
		c.i64(&d.I)
	case cdw.KDecimal:
		c.i64(&d.I)
		s := uint8(d.Scale)
		c.u8(&s)
		d.Scale = int8(s)
	case cdw.KFloat:
		bits := math.Float64bits(d.F)
		c.u64(&bits)
		d.F = math.Float64frombits(bits)
	case cdw.KString:
		c.str(&d.S)
	case cdw.KBytes:
		c.bytes(&d.B)
	default:
		c.fail(fmt.Errorf("cdwnet: unknown datum kind %d", k))
	}
}

// done ends a decode: the body must have been consumed exactly.
func (c *codec) done() error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("cdwnet: %d trailing bytes in body", len(c.b))
	}
	return c.err
}

func (r *request) body(c *codec) {
	c.str(&r.SQL)
	c.bool(&r.Range)
	c.i64(&r.Lo)
	c.i64(&r.Hi)
	c.int(&r.FetchSize)
	c.str(&r.Describe)
	c.u64(&r.TraceID)
	c.u64(&r.SpanID)
	c.bool(&r.Sampled)
}

func (h *responseHeader) body(c *codec) {
	c.int(&h.ErrCode)
	c.str(&h.ErrMsg)
	c.str(&h.ErrField)
	c.i64(&h.ErrRow)
	c.cols(&h.Columns)
	c.i64(&h.Activity)
	c.bool(&h.HasRows)
	hasMeta := h.Meta != nil
	c.bool(&hasMeta)
	if hasMeta {
		if c.dec {
			h.Meta = &TableMeta{}
		}
		h.Meta.body(c)
	}
	c.i64(&h.EngineNanos)
}

func (m *TableMeta) body(c *codec) {
	c.cols(&m.Columns)
	n := c.count(len(m.NotNull), 1)
	if c.dec && n > 0 {
		m.NotNull = make([]bool, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.bool(&m.NotNull[i])
	}
	c.strs(&m.Defaults)
	c.strs(&m.PrimaryKey)
	n = c.count(len(m.Unique), 4)
	if c.dec && n > 0 {
		m.Unique = make([][]string, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.strs(&m.Unique[i])
	}
	c.int(&m.Rows)
}

// body carries a batch as its row width, its row count, every datum row by
// row, and Last. Every row of a batch has the width of the result schema,
// so decoding allocates one backing array for the whole batch.
func (b *rowBatch) body(c *codec) {
	var width uint32
	if len(b.Rows) > 0 {
		width = uint32(len(b.Rows[0]))
	}
	c.u32(&width)
	w := int(width)
	n := c.count(len(b.Rows), max(w, 1))
	switch {
	case n > 0 && w == 0:
		c.fail(errors.New("cdwnet: row batch without columns"))
	case c.dec && n > 0 && w > len(c.b):
		c.fail(errors.New("cdwnet: truncated body reading row batch"))
	}
	if c.dec && n > 0 && c.err == nil {
		flat := make([]cdw.Datum, n*w)
		b.Rows = make([][]cdw.Datum, n)
		for i := range b.Rows {
			b.Rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
		}
	}
	for i := 0; i < n && c.err == nil; i++ {
		row := b.Rows[i]
		if len(row) != w {
			c.fail(fmt.Errorf("cdwnet: row %d has %d values, batch width %d", i, len(row), w))
			break
		}
		for j := range row {
			c.datum(&row[j])
		}
	}
	c.bool(&b.Last)
}

// frameConn is one end of a CDW connection: frames read through one
// buffered reader and written through one buffered writer, which the caller
// flushes once per request or per whole response.
type frameConn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte // reused across messages while at most maxKeptScratch
}

func newFrameConn(conn net.Conn) frameConn {
	return frameConn{conn: conn, br: bufio.NewReaderSize(conn, connBufSize), bw: bufio.NewWriterSize(conn, connBufSize)}
}

// keep retains b as the next message's scratch buffer unless it grew past
// maxKeptScratch.
func (f *frameConn) keep(b []byte) {
	if cap(b) > maxKeptScratch {
		b = nil
	}
	f.scratch = b[:0]
}

// send encodes m as one frame into the write buffer.
func (f *frameConn) send(m message) error {
	b, err := appendFrame(f.scratch[:0], m)
	if err == nil {
		_, err = f.bw.Write(b)
	}
	f.keep(b)
	return err
}

// recv reads one frame and decodes it into m. io.EOF means the peer closed
// the connection at a frame boundary.
func (f *frameConn) recv(m message) error {
	body, err := readFrame(f.br, f.scratch[:0])
	if err == nil {
		err = decodeBody(body, m)
	}
	f.keep(body)
	return err
}

// appendFrame appends m's frame, length and body, to dst.
func appendFrame(dst []byte, m message) ([]byte, error) {
	start := len(dst)
	c := codec{b: append(dst, 0, 0, 0, 0)}
	m.body(&c)
	if c.err != nil {
		return dst, c.err
	}
	n := len(c.b) - start - 4
	if n > maxFrame {
		return dst, fmt.Errorf("cdwnet: frame of %d bytes exceeds %d", n, maxFrame)
	}
	binary.BigEndian.PutUint32(c.b[start:], uint32(n))
	return c.b, nil
}

// readFrame reads one frame's body from r into buf, which it grows as the
// bytes arrive.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return buf, fmt.Errorf("cdwnet: frame of %d bytes exceeds %d", n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		m := len(buf)
		step := min(n-m, readStep)
		if cap(buf) < m+step {
			buf = append(buf[:cap(buf)], make([]byte, m+step-cap(buf))...)
		}
		buf = buf[:m+step]
		if _, err := io.ReadFull(r, buf[m:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, fmt.Errorf("cdwnet: truncated frame: %w", err)
		}
	}
	return buf, nil
}

// decodeBody decodes one frame body into m.
func decodeBody(body []byte, m message) error {
	c := codec{b: body, dec: true}
	m.body(&c)
	return c.done()
}
