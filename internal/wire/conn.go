package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"etlvirt/internal/bincodec"
	"etlvirt/internal/obs"
)

// Conn wraps a byte stream with DWP message framing. Reads and writes are
// independently safe for one concurrent reader and one concurrent writer;
// concurrent writers are serialized by a mutex so response frames from
// different server goroutines do not interleave.
type Conn struct {
	rw io.ReadWriteCloser

	rmu sync.Mutex
	br  *bufio.Reader

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte // the last frame's buffer, kept while at most 64 KiB (bincodec.Keep)
}

// NewConn wraps rw (typically a *net.TCPConn) with buffered DWP framing.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{
		rw: rw,
		br: bufio.NewReaderSize(rw, 64<<10),
		bw: bufio.NewWriterSize(rw, 64<<10),
	}
}

// Dial connects to a DWP server.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Send encodes and writes one message, then flushes.
func (c *Conn) Send(session uint32, msg Message) error {
	return c.SendT(session, msg, obs.TraceContext{})
}

// SendT is Send with a trace context attached to the frame. A zero context
// sends a plain untraced frame. The header, extension and body are encoded
// in place into one buffer, so a payload is copied once on its way out.
func (c *Conn) SendT(session uint32, msg Message, tc obs.TraceContext) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b, err := appendMessage(c.wbuf, session, msg, tc)
	if err == nil {
		if _, err = c.bw.Write(b); err == nil {
			err = c.bw.Flush()
		}
	}
	c.wbuf = bincodec.Keep(b)
	return err
}

// Recv reads and decodes the next message, returning it with its session id.
func (c *Conn) Recv() (Message, uint32, error) {
	m, session, _, err := c.RecvT()
	return m, session, err
}

// RecvT is Recv plus the trace context carried by the frame, if any (zero
// TraceID otherwise). The message's byte fields are views of a body read
// fresh for this frame: the caller owns them.
func (c *Conn) RecvT() (Message, uint32, obs.TraceContext, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	f, err := ReadFrame(c.br)
	if err != nil {
		return nil, 0, obs.TraceContext{}, err
	}
	m, err := Decode(f)
	if err != nil {
		return nil, 0, obs.TraceContext{}, err
	}
	return m, f.Session, f.Trace, nil
}

// Expect reads the next message and asserts its kind. A Failure message is
// converted to an error regardless of the expected kind.
func (c *Conn) Expect(kind Kind) (Message, error) {
	m, _, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if f, ok := m.(*Failure); ok {
		return nil, f
	}
	if m.Kind() != kind {
		return nil, fmt.Errorf("wire: expected %s, got %s", kind, m.Kind())
	}
	return m, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }
