package cdwnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"etlvirt/internal/bincodec"
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
)

// message is one frame body. Each message states its field list once, in a
// body method over the shared bincodec primitives, so encode and decode
// cannot disagree.
type message interface {
	body(c *bincodec.Codec)
}

// strs carries a string list; an empty list decodes as nil.
func strs(c *bincodec.Codec, v *[]string) {
	n := c.Count(len(*v), 4)
	if c.Decoding() && n > 0 {
		*v = make([]string, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		c.Str(&(*v)[i])
	}
}

// cols carries a result schema: per column its name and type.
func cols(c *bincodec.Codec, v *[]ResultCol) {
	n := c.Count(len(*v), 4+1+3*8+1)
	if c.Decoding() && n > 0 {
		*v = make([]ResultCol, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		col := &(*v)[i]
		c.Str(&col.Name)
		k := uint8(col.Type.Kind)
		c.U8(&k)
		col.Type.Kind = cdw.DKind(k)
		c.Int(&col.Type.Length)
		c.Int(&col.Type.Precision)
		c.Int(&col.Type.Scale)
		c.Bool(&col.Type.National)
	}
}

// datum carries a value as its kind and the one payload field that kind
// uses (see cdw.Datum). A decoded KBytes value is a copy, not a view of the
// body, because frameConn reuses its body buffer for the next frame; an
// empty one decodes as nil.
func datum(c *bincodec.Codec, d *cdw.Datum) {
	k := uint8(d.Kind)
	c.U8(&k)
	if c.Decoding() {
		*d = cdw.Datum{Kind: cdw.DKind(k)}
	}
	switch d.Kind {
	case cdw.KNull:
	case cdw.KBool:
		c.Bool(&d.Bool)
	case cdw.KInt, cdw.KDate, cdw.KTime, cdw.KTimestamp:
		c.I64(&d.I)
	case cdw.KDecimal:
		c.I64(&d.I)
		s := uint8(d.Scale)
		c.U8(&s)
		d.Scale = int8(s)
	case cdw.KFloat:
		bits := math.Float64bits(d.F)
		c.U64(&bits)
		d.F = math.Float64frombits(bits)
	case cdw.KString:
		c.Str(&d.S)
	case cdw.KBytes:
		c.Bytes(&d.B)
		if c.Decoding() {
			d.B = append([]byte(nil), d.B...)
		}
	default:
		c.Fail(fmt.Errorf("unknown datum kind %d", k))
	}
}

func (r *request) body(c *bincodec.Codec) {
	c.Str(&r.SQL)
	c.Bool(&r.Range)
	c.I64(&r.Lo)
	c.I64(&r.Hi)
	c.Int(&r.FetchSize)
	c.Str(&r.Describe)
	c.U64(&r.TraceID)
	c.U64(&r.SpanID)
	c.Bool(&r.Sampled)
}

func (h *responseHeader) body(c *bincodec.Codec) {
	c.Int(&h.ErrCode)
	c.Str(&h.ErrMsg)
	c.Str(&h.ErrField)
	c.I64(&h.ErrRow)
	cols(c, &h.Columns)
	c.I64(&h.Activity)
	c.Bool(&h.HasRows)
	hasMeta := h.Meta != nil
	c.Bool(&hasMeta)
	if hasMeta {
		if c.Decoding() {
			h.Meta = &TableMeta{}
		}
		h.Meta.body(c)
	}
	c.I64(&h.EngineNanos)
}

func (m *TableMeta) body(c *bincodec.Codec) {
	cols(c, &m.Columns)
	n := c.Count(len(m.NotNull), 1)
	if c.Decoding() && n > 0 {
		m.NotNull = make([]bool, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		c.Bool(&m.NotNull[i])
	}
	strs(c, &m.Defaults)
	strs(c, &m.PrimaryKey)
	n = c.Count(len(m.Unique), 4)
	if c.Decoding() && n > 0 {
		m.Unique = make([][]string, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		strs(c, &m.Unique[i])
	}
	c.Int(&m.Rows)
}

// body carries a batch as its row width, its row count, every datum row by
// row, and Last. Every row of a batch has the width of the result schema,
// so decoding allocates one backing array for the whole batch.
func (b *rowBatch) body(c *bincodec.Codec) {
	var width uint32
	if len(b.Rows) > 0 {
		width = uint32(len(b.Rows[0]))
	}
	c.U32(&width)
	w := int(width)
	n := c.Count(len(b.Rows), max(w, 1))
	switch {
	case n > 0 && w == 0:
		c.Fail(errors.New("row batch without columns"))
	case c.Decoding() && n > 0 && w > c.Left():
		c.Fail(errors.New("truncated body reading row batch"))
	}
	if c.Decoding() && n > 0 && c.Err() == nil {
		flat := make([]cdw.Datum, n*w)
		b.Rows = make([][]cdw.Datum, n)
		for i := range b.Rows {
			b.Rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
		}
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		row := b.Rows[i]
		if len(row) != w {
			c.Fail(fmt.Errorf("row %d has %d values, batch width %d", i, len(row), w))
			break
		}
		for j := range row {
			datum(c, &row[j])
		}
	}
	c.Bool(&b.Last)
}

// frameConn is one end of a CDW connection: frames read through one
// buffered reader and written through one buffered writer, which the caller
// flushes once per request or per whole response.
type frameConn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte // reused across messages while at most 64 KiB (bincodec.Keep)
}

func newFrameConn(conn net.Conn) frameConn {
	return frameConn{conn: conn, br: bufio.NewReaderSize(conn, connBufSize), bw: bufio.NewWriterSize(conn, connBufSize)}
}

// send encodes m as one frame into the write buffer.
func (f *frameConn) send(m message) error {
	b, err := appendFrame(f.scratch, m)
	if err == nil {
		_, err = f.bw.Write(b)
	}
	f.scratch = bincodec.Keep(b)
	return err
}

// recv reads one frame and decodes it into m. io.EOF means the peer closed
// the connection at a frame boundary.
func (f *frameConn) recv(m message) error {
	body, err := readFrame(f.br, f.scratch)
	if err == nil {
		err = decodeBody(body, m)
	}
	f.scratch = bincodec.Keep(body)
	return err
}

// appendFrame appends m's frame, length and body, to dst.
func appendFrame(dst []byte, m message) ([]byte, error) {
	c := bincodec.Encoder(append(dst, 0, 0, 0, 0))
	m.body(&c)
	b, err := c.Encoded()
	if err != nil {
		return dst, fmt.Errorf("cdwnet: %w", err)
	}
	n := len(b) - len(dst) - 4
	if n > maxFrame {
		return dst, fmt.Errorf("cdwnet: frame of %d bytes exceeds %d", n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[len(dst):], uint32(n))
	return b, nil
}

// readFrame reads one frame's body from r into buf, which it grows as the
// bytes arrive (bincodec.ReadBody).
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return buf, fmt.Errorf("cdwnet: frame of %d bytes exceeds %d", n, maxFrame)
	}
	body, err := bincodec.ReadBody(r, buf, n)
	if err != nil {
		return body, fmt.Errorf("cdwnet: truncated frame: %w", err)
	}
	return body, nil
}

// decodeBody decodes one frame body into m.
func decodeBody(body []byte, m message) error {
	c := bincodec.Decoder(body)
	m.body(&c)
	if err := c.Done(); err != nil {
		return fmt.Errorf("cdwnet: %w", err)
	}
	return nil
}
