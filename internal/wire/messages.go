package wire

import (
	"errors"
	"fmt"
	"math"
	"time"

	"etlvirt/internal/bincodec"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
)

// Message is a decoded frame body. Each concrete message type corresponds to
// one frame Kind, and states its fields once, in wire order, in a body method
// over the shared bincodec primitives.
type Message interface {
	Kind() Kind
	body(c *bincodec.Codec)
}

// layout carries a record layout: its name, a u16 field count, then per
// field its name, kind, length, precision, scale and charset.
func layout(c *bincodec.Codec, p **ltype.Layout) {
	if c.Decoding() {
		*p = &ltype.Layout{}
	}
	l := *p
	c.Str(&l.Name)
	if len(l.Fields) > math.MaxUint16 {
		c.Fail(errors.New("layout has too many fields"))
	}
	n := uint16(len(l.Fields))
	c.U16(&n)
	for i := 0; i < int(n) && c.Err() == nil; i++ {
		if c.Decoding() {
			l.Fields = append(l.Fields, ltype.Field{})
		}
		f := &l.Fields[i]
		length, prec, scale := uint32(f.Type.Length), uint8(f.Type.Precision), uint8(f.Type.Scale)
		c.Str(&f.Name)
		c.U8((*uint8)(&f.Type.Kind))
		c.U32(&length)
		c.U8(&prec)
		c.U8(&scale)
		c.U8((*uint8)(&f.Type.CharSet))
		if c.Decoding() {
			f.Type.Length, f.Type.Precision, f.Type.Scale = int(length), int(prec), int(scale)
		}
	}
}

// DataFormat selects how records are encoded inside DataChunk frames.
type DataFormat uint8

// Data formats supported for load jobs.
const (
	FormatIndicator DataFormat = 0 // indicator-mode binary records
	FormatVartext   DataFormat = 1 // delimiter-separated text records
)

// String returns the script spelling of the format.
func (f DataFormat) String() string {
	if f == FormatVartext {
		return "VARTEXT"
	}
	return "INDICATOR"
}

// Logon authenticates a new session.
type Logon struct {
	Host     string
	User     string
	Password string
	Account  string
}

// Kind implements Message.
func (*Logon) Kind() Kind { return KindLogon }
func (m *Logon) body(c *bincodec.Codec) {
	c.Str(&m.Host)
	c.Str(&m.User)
	c.Str(&m.Password)
	c.Str(&m.Account)
}

// LogonOK confirms a session.
type LogonOK struct {
	SessionID     uint32
	ServerVersion string
}

// Kind implements Message.
func (*LogonOK) Kind() Kind { return KindLogonOK }
func (m *LogonOK) body(c *bincodec.Codec) {
	c.U32(&m.SessionID)
	c.Str(&m.ServerVersion)
}

// Logoff ends a session.
type Logoff struct{}

// Kind implements Message.
func (*Logoff) Kind() Kind           { return KindLogoff }
func (*Logoff) body(*bincodec.Codec) {}

// RunSQL executes a SQL request on the control session.
type RunSQL struct {
	SQL string
}

// Kind implements Message.
func (*RunSQL) Kind() Kind { return KindRunSQL }
func (m *RunSQL) body(c *bincodec.Codec) {
	c.Str(&m.SQL)
}

// StmtSuccess reports a successful statement with its activity count.
type StmtSuccess struct {
	ActivityCount uint64
	Warning       string
}

// Kind implements Message.
func (*StmtSuccess) Kind() Kind { return KindStmtSuccess }
func (m *StmtSuccess) body(c *bincodec.Codec) {
	c.U64(&m.ActivityCount)
	c.Str(&m.Warning)
}

// RecordHeader announces a result set and carries its layout.
type RecordHeader struct {
	Layout *ltype.Layout
}

// Kind implements Message.
func (*RecordHeader) Kind() Kind { return KindRecordHeader }
func (m *RecordHeader) body(c *bincodec.Codec) {
	layout(c, &m.Layout)
}

// Records carries a batch of indicator-mode records of a result set.
type Records struct {
	Count   uint32
	Payload []byte
}

// Kind implements Message.
func (*Records) Kind() Kind { return KindRecords }
func (m *Records) body(c *bincodec.Codec) {
	c.U32(&m.Count)
	c.Bytes(&m.Payload)
}

// EndStatement terminates a result set.
type EndStatement struct{}

// Kind implements Message.
func (*EndStatement) Kind() Kind           { return KindEndStatement }
func (*EndStatement) body(*bincodec.Codec) {}

// Failure reports a failed request.
type Failure struct {
	Code    uint32
	Message string
}

// Kind implements Message.
func (*Failure) Kind() Kind { return KindFailure }
func (m *Failure) body(c *bincodec.Codec) {
	c.U32(&m.Code)
	c.Str(&m.Message)
}

// Error converts a Failure into a Go error.
func (m *Failure) Error() string {
	return fmt.Sprintf("server failure %d: %s", m.Code, m.Message)
}

// BeginLoad starts an import job on the control session.
type BeginLoad struct {
	Table      string // target table, possibly qualified
	ErrTableET string // transformation-error table
	ErrTableUV string // uniqueness-violation table
	Layout     *ltype.Layout
	Format     DataFormat
	Delim      byte   // vartext delimiter
	Sessions   uint16 // number of parallel data sessions the client will open
	MaxErrors  uint32 // 0 means server default
	MaxRetries uint32 // 0 means server default
}

// Kind implements Message.
func (*BeginLoad) Kind() Kind { return KindBeginLoad }
func (m *BeginLoad) body(c *bincodec.Codec) {
	c.Str(&m.Table)
	c.Str(&m.ErrTableET)
	c.Str(&m.ErrTableUV)
	layout(c, &m.Layout)
	c.U8((*uint8)(&m.Format))
	c.U8(&m.Delim)
	c.U16(&m.Sessions)
	c.U32(&m.MaxErrors)
	c.U32(&m.MaxRetries)
}

// LoadOK confirms job creation.
type LoadOK struct {
	JobID uint64
}

// Kind implements Message.
func (*LoadOK) Kind() Kind { return KindLoadOK }
func (m *LoadOK) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
}

// AttachLoad binds a data session to an import job.
type AttachLoad struct {
	JobID      uint64
	SessionSeq uint16 // 0-based index among the job's parallel sessions
}

// Kind implements Message.
func (*AttachLoad) Kind() Kind { return KindAttachLoad }
func (m *AttachLoad) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U16(&m.SessionSeq)
}

// AttachOK confirms a data-session attach.
type AttachOK struct{}

// Kind implements Message.
func (*AttachOK) Kind() Kind           { return KindAttachOK }
func (*AttachOK) body(*bincodec.Codec) {}

// DataChunk carries a batch of input records during acquisition. Seq numbers
// are global across the job's sessions and assign each chunk its position in
// the input; FirstRow is the 1-based row number of the chunk's first record.
type DataChunk struct {
	JobID    uint64
	Seq      uint64
	FirstRow uint64
	Count    uint32
	Payload  []byte
}

// Kind implements Message.
func (*DataChunk) Kind() Kind { return KindDataChunk }
func (m *DataChunk) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U64(&m.Seq)
	c.U64(&m.FirstRow)
	c.U32(&m.Count)
	c.Bytes(&m.Payload)
}

// ChunkAck acknowledges receipt of the chunk with the given sequence number.
// The legacy protocol is synchronous per session: the client does not send
// the next chunk on a session until the previous one is acknowledged.
type ChunkAck struct {
	Seq uint64
}

// Kind implements Message.
func (*ChunkAck) Kind() Kind { return KindChunkAck }
func (m *ChunkAck) body(c *bincodec.Codec) {
	c.U64(&m.Seq)
}

// EndAcquire signals that a data session has no more chunks.
type EndAcquire struct {
	JobID uint64
}

// Kind implements Message.
func (*EndAcquire) Kind() Kind { return KindEndAcquire }
func (m *EndAcquire) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
}

// AcquireDone confirms that all received data has been staged and the job is
// ready for the application phase.
type AcquireDone struct {
	JobID      uint64
	RowsStaged uint64
	DataErrors uint64 // malformed records rejected during acquisition
}

// Kind implements Message.
func (*AcquireDone) Kind() Kind { return KindAcquireDone }
func (m *AcquireDone) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U64(&m.RowsStaged)
	c.U64(&m.DataErrors)
}

// ApplyDML submits the application-phase transformation.
type ApplyDML struct {
	JobID uint64
	Label string
	SQL   string
}

// Kind implements Message.
func (*ApplyDML) Kind() Kind { return KindApplyDML }
func (m *ApplyDML) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.Str(&m.Label)
	c.Str(&m.SQL)
}

// ApplyResult reports the outcome of the application phase.
type ApplyResult struct {
	JobID    uint64
	Inserted uint64
	Updated  uint64
	Deleted  uint64
	ErrorsET uint64 // rows recorded in the transformation-error table
	ErrorsUV uint64 // rows recorded in the uniqueness-violation table
}

// Kind implements Message.
func (*ApplyResult) Kind() Kind { return KindApplyResult }
func (m *ApplyResult) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U64(&m.Inserted)
	c.U64(&m.Updated)
	c.U64(&m.Deleted)
	c.U64(&m.ErrorsET)
	c.U64(&m.ErrorsUV)
}

// EndLoad closes an import job.
type EndLoad struct {
	JobID uint64
}

// Kind implements Message.
func (*EndLoad) Kind() Kind { return KindEndLoad }
func (m *EndLoad) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
}

// LoadDone confirms job teardown.
type LoadDone struct {
	JobID uint64
}

// Kind implements Message.
func (*LoadDone) Kind() Kind { return KindLoadDone }
func (m *LoadDone) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
}

// BeginExport starts an export job whose data source is a SELECT statement.
type BeginExport struct {
	SQL      string
	Sessions uint16
	Format   DataFormat
	Delim    byte
}

// Kind implements Message.
func (*BeginExport) Kind() Kind { return KindBeginExport }
func (m *BeginExport) body(c *bincodec.Codec) {
	c.Str(&m.SQL)
	c.U16(&m.Sessions)
	c.U8((*uint8)(&m.Format))
	c.U8(&m.Delim)
}

// ExportOK confirms an export job and announces the result layout.
type ExportOK struct {
	JobID  uint64
	Layout *ltype.Layout
}

// Kind implements Message.
func (*ExportOK) Kind() Kind { return KindExportOK }
func (m *ExportOK) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	layout(c, &m.Layout)
}

// ExportChunkRq requests chunk Seq of the export result.
type ExportChunkRq struct {
	JobID uint64
	Seq   uint64
}

// Kind implements Message.
func (*ExportChunkRq) Kind() Kind { return KindExportChunkRq }
func (m *ExportChunkRq) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U64(&m.Seq)
}

// ExportChunk returns chunk Seq. EOF marks the final chunk; an EOF chunk may
// still carry records.
type ExportChunk struct {
	JobID   uint64
	Seq     uint64
	Count   uint32
	EOF     bool
	Payload []byte
}

// Kind implements Message.
func (*ExportChunk) Kind() Kind { return KindExportChunk }
func (m *ExportChunk) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U64(&m.Seq)
	c.U32(&m.Count)
	c.Bool(&m.EOF)
	c.Bytes(&m.Payload)
}

// EndExport closes an export job.
type EndExport struct {
	JobID uint64
}

// Kind implements Message.
func (*EndExport) Kind() Kind { return KindEndExport }
func (m *EndExport) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
}

// BeginStream opens a long-lived CDC streaming session on the control
// session. Name identifies the stream across reconnects: the server keeps a
// per-name commit watermark in the CDW so a resumed stream can discard
// already-applied deltas.
type BeginStream struct {
	Name            string // durable stream identity, used for checkpoint/resume
	Table           string // target table, possibly qualified
	ErrTableET      string // transformation-error table
	Layout          *ltype.Layout
	Format          DataFormat
	Delim           byte   // vartext delimiter
	SQL             string // INSERT-shaped apply DML; update/delete halves are derived
	LatencyTargetMS uint32 // 0 means server default
	MaxErrors       uint32 // 0 means server default
}

// Kind implements Message.
func (*BeginStream) Kind() Kind { return KindBeginStream }
func (m *BeginStream) body(c *bincodec.Codec) {
	c.Str(&m.Name)
	c.Str(&m.Table)
	c.Str(&m.ErrTableET)
	layout(c, &m.Layout)
	c.U8((*uint8)(&m.Format))
	c.U8(&m.Delim)
	c.Str(&m.SQL)
	c.U32(&m.LatencyTargetMS)
	c.U32(&m.MaxErrors)
}

// StreamOK confirms a stream. ResumeSeq is the persisted commit watermark for
// the stream name: every delta with sequence <= ResumeSeq has already been
// applied, so a resuming client may skip ahead. BatchHint is the controller's
// initial preferred frame size in records.
type StreamOK struct {
	StreamID  uint64
	ResumeSeq uint64
	BatchHint uint32
}

// Kind implements Message.
func (*StreamOK) Kind() Kind { return KindStreamOK }
func (m *StreamOK) body(c *bincodec.Codec) {
	c.U64(&m.StreamID)
	c.U64(&m.ResumeSeq)
	c.U32(&m.BatchHint)
}

// DeltaFrame carries Count CDC delta records. Each record is a one-byte op
// marker ('I', 'U', or 'D') followed by a full-row image in the stream's data
// format. FirstSeq is the global sequence number of the first record; the
// frame covers [FirstSeq, FirstSeq+Count).
type DeltaFrame struct {
	StreamID uint64
	FirstSeq uint64
	Count    uint32
	Payload  []byte
}

// Kind implements Message.
func (*DeltaFrame) Kind() Kind { return KindDeltaFrame }
func (m *DeltaFrame) body(c *bincodec.Codec) {
	c.U64(&m.StreamID)
	c.U64(&m.FirstSeq)
	c.U32(&m.Count)
	c.Bytes(&m.Payload)
}

// DeltaAck acknowledges a delta frame. Like ChunkAck the stream protocol is
// synchronous: the server delays the ack while backpressured, which throttles
// the client. CommittedSeq piggybacks the current durable watermark and
// BatchHint the controller's live preferred frame size, so the client adapts
// without extra round trips.
type DeltaAck struct {
	StreamID     uint64
	Seq          uint64 // FirstSeq of the frame being acknowledged
	CommittedSeq uint64 // highest delta sequence durably applied to the CDW
	BatchHint    uint32 // controller's current preferred records per frame
}

// Kind implements Message.
func (*DeltaAck) Kind() Kind { return KindDeltaAck }
func (m *DeltaAck) body(c *bincodec.Codec) {
	c.U64(&m.StreamID)
	c.U64(&m.Seq)
	c.U64(&m.CommittedSeq)
	c.U32(&m.BatchHint)
}

// EndStream flushes any buffered deltas, commits, and closes the stream.
type EndStream struct {
	StreamID uint64
}

// Kind implements Message.
func (*EndStream) Kind() Kind { return KindEndStream }
func (m *EndStream) body(c *bincodec.Codec) {
	c.U64(&m.StreamID)
}

// StreamDone reports the final state of a closed stream.
type StreamDone struct {
	StreamID  uint64
	Watermark uint64 // final durable commit watermark
	Inserted  uint64
	Updated   uint64
	Deleted   uint64
	ErrorsET  uint64 // rows recorded in the transformation-error table
	Replayed  uint64 // deltas discarded as already applied (<= resume watermark)
}

// Kind implements Message.
func (*StreamDone) Kind() Kind { return KindStreamDone }
func (m *StreamDone) body(c *bincodec.Codec) {
	c.U64(&m.StreamID)
	c.U64(&m.Watermark)
	c.U64(&m.Inserted)
	c.U64(&m.Updated)
	c.U64(&m.Deleted)
	c.U64(&m.ErrorsET)
	c.U64(&m.Replayed)
}

// TraceSpans ships client-side trace spans to the server so the virtualizer
// can fold them into the job's distributed timeline before the job is
// evicted. JobID names the server-side job (or stream) the spans belong to.
type TraceSpans struct {
	JobID uint64
	Spans []obs.Span
}

// Kind implements Message.
func (*TraceSpans) Kind() Kind { return KindTraceSpans }
func (m *TraceSpans) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	// Each span encodes to at least 49 bytes.
	n := c.Count(len(m.Spans), 49)
	if c.Decoding() && n > 0 {
		m.Spans = make([]obs.Span, n)
	}
	for i := 0; i < n; i++ {
		s := &m.Spans[i]
		start, dur, rows, bytes, depth := uint64(s.Start.UnixNano()), uint64(s.Dur), uint64(s.Rows), uint64(s.Bytes), uint32(s.Depth)
		c.U64(&s.ID)
		c.U64(&s.Parent)
		c.Str(&s.Proc)
		c.Str(&s.Stage)
		c.Str(&s.Worker)
		c.U64(&start)
		c.U64(&dur)
		c.U64(&rows)
		c.U64(&bytes)
		c.U32(&depth)
		c.Str(&s.Err)
		if c.Decoding() {
			s.Start, s.Dur, s.Rows, s.Bytes, s.Depth = time.Unix(0, int64(start)), time.Duration(dur), int64(rows), int64(bytes), int(depth)
		}
	}
}

// TraceAck confirms the spans were folded into the job's timeline.
type TraceAck struct {
	JobID uint64
	Added uint32 // spans accepted (the rest hit the trace's span cap)
}

// Kind implements Message.
func (*TraceAck) Kind() Kind { return KindTraceAck }
func (m *TraceAck) body(c *bincodec.Codec) {
	c.U64(&m.JobID)
	c.U32(&m.Added)
}

// Encode builds a frame for msg on the given session. It encodes through
// the same path as Conn.SendT and returns the body behind the header.
func Encode(session uint32, msg Message) (Frame, error) {
	b, err := appendMessage(nil, session, msg, obs.TraceContext{})
	if err != nil {
		return Frame{}, err
	}
	return Frame{Kind: msg.Kind(), Session: session, Body: b[HeaderSize:]}, nil
}

// Decode parses a frame body into its message. Byte fields (the Payload of
// Records, DataChunk, ExportChunk and DeltaFrame) are views of f.Body, not
// copies; ReadFrame returns every body fresh, so the message owns them.
func Decode(f Frame) (Message, error) {
	m := newMessage(f.Kind)
	if m == nil {
		return nil, fmt.Errorf("wire: no message for kind %s", f.Kind)
	}
	c := bincodec.Decoder(f.Body)
	m.body(&c)
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", f.Kind, err)
	}
	return m, nil
}

// kinds names each frame kind and constructs its message. Adding a kind
// means a constant, a message struct with Kind and body methods, and one
// line here.
var kinds = [kindMax + 1]struct {
	name string
	new  func() Message
}{
	KindInvalid:       {name: "Invalid"},
	KindLogon:         {"Logon", func() Message { return new(Logon) }},
	KindLogonOK:       {"LogonOK", func() Message { return new(LogonOK) }},
	KindLogoff:        {"Logoff", func() Message { return new(Logoff) }},
	KindRunSQL:        {"RunSQL", func() Message { return new(RunSQL) }},
	KindStmtSuccess:   {"StmtSuccess", func() Message { return new(StmtSuccess) }},
	KindRecordHeader:  {"RecordHeader", func() Message { return new(RecordHeader) }},
	KindRecords:       {"Records", func() Message { return new(Records) }},
	KindEndStatement:  {"EndStatement", func() Message { return new(EndStatement) }},
	KindFailure:       {"Failure", func() Message { return new(Failure) }},
	KindBeginLoad:     {"BeginLoad", func() Message { return new(BeginLoad) }},
	KindLoadOK:        {"LoadOK", func() Message { return new(LoadOK) }},
	KindAttachLoad:    {"AttachLoad", func() Message { return new(AttachLoad) }},
	KindAttachOK:      {"AttachOK", func() Message { return new(AttachOK) }},
	KindDataChunk:     {"DataChunk", func() Message { return new(DataChunk) }},
	KindChunkAck:      {"ChunkAck", func() Message { return new(ChunkAck) }},
	KindEndAcquire:    {"EndAcquire", func() Message { return new(EndAcquire) }},
	KindAcquireDone:   {"AcquireDone", func() Message { return new(AcquireDone) }},
	KindApplyDML:      {"ApplyDML", func() Message { return new(ApplyDML) }},
	KindApplyResult:   {"ApplyResult", func() Message { return new(ApplyResult) }},
	KindEndLoad:       {"EndLoad", func() Message { return new(EndLoad) }},
	KindLoadDone:      {"LoadDone", func() Message { return new(LoadDone) }},
	KindBeginExport:   {"BeginExport", func() Message { return new(BeginExport) }},
	KindExportOK:      {"ExportOK", func() Message { return new(ExportOK) }},
	KindExportChunkRq: {"ExportChunkRq", func() Message { return new(ExportChunkRq) }},
	KindExportChunk:   {"ExportChunk", func() Message { return new(ExportChunk) }},
	KindEndExport:     {"EndExport", func() Message { return new(EndExport) }},
	KindBeginStream:   {"BeginStream", func() Message { return new(BeginStream) }},
	KindStreamOK:      {"StreamOK", func() Message { return new(StreamOK) }},
	KindDeltaFrame:    {"DeltaFrame", func() Message { return new(DeltaFrame) }},
	KindDeltaAck:      {"DeltaAck", func() Message { return new(DeltaAck) }},
	KindEndStream:     {"EndStream", func() Message { return new(EndStream) }},
	KindStreamDone:    {"StreamDone", func() Message { return new(StreamDone) }},
	KindTraceSpans:    {"TraceSpans", func() Message { return new(TraceSpans) }},
	KindTraceAck:      {"TraceAck", func() Message { return new(TraceAck) }},
}

// String returns a diagnostic name for the kind.
func (k Kind) String() string {
	if k <= kindMax && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// newMessage returns an empty message of kind k, or nil for a kind without
// a message.
func newMessage(k Kind) Message {
	if k > kindMax || kinds[k].new == nil {
		return nil
	}
	return kinds[k].new()
}
