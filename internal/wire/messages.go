package wire

import (
	"fmt"
	"time"

	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
)

// Message is a decoded frame body. Each concrete message type corresponds to
// one frame Kind.
type Message interface {
	Kind() Kind
	encode(w *bodyWriter) error
	decode(r *bodyReader) error
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

func (m *Logon) encode(w *bodyWriter) error {
	for _, s := range []string{m.Host, m.User, m.Password, m.Account} {
		if err := w.str(s); err != nil {
			return err
		}
	}
	return nil
}

func (m *Logon) decode(r *bodyReader) error {
	m.Host, m.User, m.Password, m.Account = r.str(), r.str(), r.str(), r.str()
	return r.done()
}

// LogonOK confirms a session.
type LogonOK struct {
	SessionID     uint32
	ServerVersion string
}

// Kind implements Message.
func (*LogonOK) Kind() Kind { return KindLogonOK }

func (m *LogonOK) encode(w *bodyWriter) error {
	w.u32(m.SessionID)
	return w.str(m.ServerVersion)
}

func (m *LogonOK) decode(r *bodyReader) error {
	m.SessionID = r.u32()
	m.ServerVersion = r.str()
	return r.done()
}

// Logoff ends a session.
type Logoff struct{}

// Kind implements Message.
func (*Logoff) Kind() Kind { return KindLogoff }

func (m *Logoff) encode(*bodyWriter) error   { return nil }
func (m *Logoff) decode(r *bodyReader) error { return r.done() }

// RunSQL executes a SQL request on the control session.
type RunSQL struct {
	SQL string
}

// Kind implements Message.
func (*RunSQL) Kind() Kind { return KindRunSQL }

func (m *RunSQL) encode(w *bodyWriter) error { return w.str(m.SQL) }
func (m *RunSQL) decode(r *bodyReader) error {
	m.SQL = r.str()
	return r.done()
}

// StmtSuccess reports a successful statement with its activity count.
type StmtSuccess struct {
	ActivityCount uint64
	Warning       string
}

// Kind implements Message.
func (*StmtSuccess) Kind() Kind { return KindStmtSuccess }

func (m *StmtSuccess) encode(w *bodyWriter) error {
	w.u64(m.ActivityCount)
	return w.str(m.Warning)
}

func (m *StmtSuccess) decode(r *bodyReader) error {
	m.ActivityCount = r.u64()
	m.Warning = r.str()
	return r.done()
}

// RecordHeader announces a result set and carries its layout.
type RecordHeader struct {
	Layout *ltype.Layout
}

// Kind implements Message.
func (*RecordHeader) Kind() Kind { return KindRecordHeader }

func (m *RecordHeader) encode(w *bodyWriter) error { return writeLayout(w, m.Layout) }
func (m *RecordHeader) decode(r *bodyReader) error {
	m.Layout = readLayout(r)
	return r.done()
}

// Records carries a batch of indicator-mode records of a result set.
type Records struct {
	Count   uint32
	Payload []byte
}

// Kind implements Message.
func (*Records) Kind() Kind { return KindRecords }

func (m *Records) encode(w *bodyWriter) error {
	w.u32(m.Count)
	return w.bytes(m.Payload)
}

func (m *Records) decode(r *bodyReader) error {
	m.Count = r.u32()
	m.Payload = r.bytes()
	return r.done()
}

// EndStatement terminates a result set.
type EndStatement struct{}

// Kind implements Message.
func (*EndStatement) Kind() Kind { return KindEndStatement }

func (m *EndStatement) encode(*bodyWriter) error   { return nil }
func (m *EndStatement) decode(r *bodyReader) error { return r.done() }

// Failure reports a failed request.
type Failure struct {
	Code    uint32
	Message string
}

// Kind implements Message.
func (*Failure) Kind() Kind { return KindFailure }

func (m *Failure) encode(w *bodyWriter) error {
	w.u32(m.Code)
	return w.str(m.Message)
}

func (m *Failure) decode(r *bodyReader) error {
	m.Code = r.u32()
	m.Message = r.str()
	return r.done()
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

func (m *BeginLoad) encode(w *bodyWriter) error {
	for _, s := range []string{m.Table, m.ErrTableET, m.ErrTableUV} {
		if err := w.str(s); err != nil {
			return err
		}
	}
	if err := writeLayout(w, m.Layout); err != nil {
		return err
	}
	w.u8(uint8(m.Format))
	w.u8(m.Delim)
	w.u16(m.Sessions)
	w.u32(m.MaxErrors)
	w.u32(m.MaxRetries)
	return nil
}

func (m *BeginLoad) decode(r *bodyReader) error {
	m.Table, m.ErrTableET, m.ErrTableUV = r.str(), r.str(), r.str()
	m.Layout = readLayout(r)
	m.Format = DataFormat(r.u8())
	m.Delim = r.u8()
	m.Sessions = r.u16()
	m.MaxErrors = r.u32()
	m.MaxRetries = r.u32()
	return r.done()
}

// LoadOK confirms job creation.
type LoadOK struct {
	JobID uint64
}

// Kind implements Message.
func (*LoadOK) Kind() Kind { return KindLoadOK }

func (m *LoadOK) encode(w *bodyWriter) error { w.u64(m.JobID); return nil }
func (m *LoadOK) decode(r *bodyReader) error {
	m.JobID = r.u64()
	return r.done()
}

// AttachLoad binds a data session to an import job.
type AttachLoad struct {
	JobID      uint64
	SessionSeq uint16 // 0-based index among the job's parallel sessions
}

// Kind implements Message.
func (*AttachLoad) Kind() Kind { return KindAttachLoad }

func (m *AttachLoad) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u16(m.SessionSeq)
	return nil
}

func (m *AttachLoad) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.SessionSeq = r.u16()
	return r.done()
}

// AttachOK confirms a data-session attach.
type AttachOK struct{}

// Kind implements Message.
func (*AttachOK) Kind() Kind { return KindAttachOK }

func (m *AttachOK) encode(*bodyWriter) error   { return nil }
func (m *AttachOK) decode(r *bodyReader) error { return r.done() }

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

func (m *DataChunk) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u64(m.Seq)
	w.u64(m.FirstRow)
	w.u32(m.Count)
	return w.bytes(m.Payload)
}

func (m *DataChunk) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	m.FirstRow = r.u64()
	m.Count = r.u32()
	m.Payload = r.bytes()
	return r.done()
}

// ChunkAck acknowledges receipt of the chunk with the given sequence number.
// The legacy protocol is synchronous per session: the client does not send
// the next chunk on a session until the previous one is acknowledged.
type ChunkAck struct {
	Seq uint64
}

// Kind implements Message.
func (*ChunkAck) Kind() Kind { return KindChunkAck }

func (m *ChunkAck) encode(w *bodyWriter) error { w.u64(m.Seq); return nil }
func (m *ChunkAck) decode(r *bodyReader) error {
	m.Seq = r.u64()
	return r.done()
}

// EndAcquire signals that a data session has no more chunks.
type EndAcquire struct {
	JobID uint64
}

// Kind implements Message.
func (*EndAcquire) Kind() Kind { return KindEndAcquire }

func (m *EndAcquire) encode(w *bodyWriter) error { w.u64(m.JobID); return nil }
func (m *EndAcquire) decode(r *bodyReader) error {
	m.JobID = r.u64()
	return r.done()
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

func (m *AcquireDone) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u64(m.RowsStaged)
	w.u64(m.DataErrors)
	return nil
}

func (m *AcquireDone) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.RowsStaged = r.u64()
	m.DataErrors = r.u64()
	return r.done()
}

// ApplyDML submits the application-phase transformation.
type ApplyDML struct {
	JobID uint64
	Label string
	SQL   string
}

// Kind implements Message.
func (*ApplyDML) Kind() Kind { return KindApplyDML }

func (m *ApplyDML) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	if err := w.str(m.Label); err != nil {
		return err
	}
	return w.str(m.SQL)
}

func (m *ApplyDML) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Label = r.str()
	m.SQL = r.str()
	return r.done()
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

func (m *ApplyResult) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u64(m.Inserted)
	w.u64(m.Updated)
	w.u64(m.Deleted)
	w.u64(m.ErrorsET)
	w.u64(m.ErrorsUV)
	return nil
}

func (m *ApplyResult) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Inserted = r.u64()
	m.Updated = r.u64()
	m.Deleted = r.u64()
	m.ErrorsET = r.u64()
	m.ErrorsUV = r.u64()
	return r.done()
}

// EndLoad closes an import job.
type EndLoad struct {
	JobID uint64
}

// Kind implements Message.
func (*EndLoad) Kind() Kind { return KindEndLoad }

func (m *EndLoad) encode(w *bodyWriter) error { w.u64(m.JobID); return nil }
func (m *EndLoad) decode(r *bodyReader) error {
	m.JobID = r.u64()
	return r.done()
}

// LoadDone confirms job teardown.
type LoadDone struct {
	JobID uint64
}

// Kind implements Message.
func (*LoadDone) Kind() Kind { return KindLoadDone }

func (m *LoadDone) encode(w *bodyWriter) error { w.u64(m.JobID); return nil }
func (m *LoadDone) decode(r *bodyReader) error {
	m.JobID = r.u64()
	return r.done()
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

func (m *BeginExport) encode(w *bodyWriter) error {
	if err := w.str(m.SQL); err != nil {
		return err
	}
	w.u16(m.Sessions)
	w.u8(uint8(m.Format))
	w.u8(m.Delim)
	return nil
}

func (m *BeginExport) decode(r *bodyReader) error {
	m.SQL = r.str()
	m.Sessions = r.u16()
	m.Format = DataFormat(r.u8())
	m.Delim = r.u8()
	return r.done()
}

// ExportOK confirms an export job and announces the result layout.
type ExportOK struct {
	JobID  uint64
	Layout *ltype.Layout
}

// Kind implements Message.
func (*ExportOK) Kind() Kind { return KindExportOK }

func (m *ExportOK) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	return writeLayout(w, m.Layout)
}

func (m *ExportOK) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Layout = readLayout(r)
	return r.done()
}

// ExportChunkRq requests chunk Seq of the export result.
type ExportChunkRq struct {
	JobID uint64
	Seq   uint64
}

// Kind implements Message.
func (*ExportChunkRq) Kind() Kind { return KindExportChunkRq }

func (m *ExportChunkRq) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u64(m.Seq)
	return nil
}

func (m *ExportChunkRq) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	return r.done()
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

func (m *ExportChunk) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u64(m.Seq)
	w.u32(m.Count)
	w.bool(m.EOF)
	return w.bytes(m.Payload)
}

func (m *ExportChunk) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Seq = r.u64()
	m.Count = r.u32()
	m.EOF = r.bool()
	m.Payload = r.bytes()
	return r.done()
}

// EndExport closes an export job.
type EndExport struct {
	JobID uint64
}

// Kind implements Message.
func (*EndExport) Kind() Kind { return KindEndExport }

func (m *EndExport) encode(w *bodyWriter) error { w.u64(m.JobID); return nil }
func (m *EndExport) decode(r *bodyReader) error {
	m.JobID = r.u64()
	return r.done()
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

func (m *BeginStream) encode(w *bodyWriter) error {
	for _, s := range []string{m.Name, m.Table, m.ErrTableET} {
		if err := w.str(s); err != nil {
			return err
		}
	}
	if err := writeLayout(w, m.Layout); err != nil {
		return err
	}
	w.u8(uint8(m.Format))
	w.u8(m.Delim)
	if err := w.str(m.SQL); err != nil {
		return err
	}
	w.u32(m.LatencyTargetMS)
	w.u32(m.MaxErrors)
	return nil
}

func (m *BeginStream) decode(r *bodyReader) error {
	m.Name, m.Table, m.ErrTableET = r.str(), r.str(), r.str()
	m.Layout = readLayout(r)
	m.Format = DataFormat(r.u8())
	m.Delim = r.u8()
	m.SQL = r.str()
	m.LatencyTargetMS = r.u32()
	m.MaxErrors = r.u32()
	return r.done()
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

func (m *StreamOK) encode(w *bodyWriter) error {
	w.u64(m.StreamID)
	w.u64(m.ResumeSeq)
	w.u32(m.BatchHint)
	return nil
}

func (m *StreamOK) decode(r *bodyReader) error {
	m.StreamID = r.u64()
	m.ResumeSeq = r.u64()
	m.BatchHint = r.u32()
	return r.done()
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

func (m *DeltaFrame) encode(w *bodyWriter) error {
	w.u64(m.StreamID)
	w.u64(m.FirstSeq)
	w.u32(m.Count)
	return w.bytes(m.Payload)
}

func (m *DeltaFrame) decode(r *bodyReader) error {
	m.StreamID = r.u64()
	m.FirstSeq = r.u64()
	m.Count = r.u32()
	m.Payload = r.bytes()
	return r.done()
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

func (m *DeltaAck) encode(w *bodyWriter) error {
	w.u64(m.StreamID)
	w.u64(m.Seq)
	w.u64(m.CommittedSeq)
	w.u32(m.BatchHint)
	return nil
}

func (m *DeltaAck) decode(r *bodyReader) error {
	m.StreamID = r.u64()
	m.Seq = r.u64()
	m.CommittedSeq = r.u64()
	m.BatchHint = r.u32()
	return r.done()
}

// EndStream flushes any buffered deltas, commits, and closes the stream.
type EndStream struct {
	StreamID uint64
}

// Kind implements Message.
func (*EndStream) Kind() Kind { return KindEndStream }

func (m *EndStream) encode(w *bodyWriter) error { w.u64(m.StreamID); return nil }
func (m *EndStream) decode(r *bodyReader) error {
	m.StreamID = r.u64()
	return r.done()
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

func (m *StreamDone) encode(w *bodyWriter) error {
	w.u64(m.StreamID)
	w.u64(m.Watermark)
	w.u64(m.Inserted)
	w.u64(m.Updated)
	w.u64(m.Deleted)
	w.u64(m.ErrorsET)
	w.u64(m.Replayed)
	return nil
}

func (m *StreamDone) decode(r *bodyReader) error {
	m.StreamID = r.u64()
	m.Watermark = r.u64()
	m.Inserted = r.u64()
	m.Updated = r.u64()
	m.Deleted = r.u64()
	m.ErrorsET = r.u64()
	m.Replayed = r.u64()
	return r.done()
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

func (m *TraceSpans) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u32(uint32(len(m.Spans)))
	for _, s := range m.Spans {
		w.u64(s.ID)
		w.u64(s.Parent)
		for _, str := range []string{s.Proc, s.Stage, s.Worker} {
			if err := w.str(str); err != nil {
				return err
			}
		}
		w.u64(uint64(s.Start.UnixNano()))
		w.u64(uint64(s.Dur))
		w.u64(uint64(s.Rows))
		w.u64(uint64(s.Bytes))
		w.u32(uint32(s.Depth))
		if err := w.str(s.Err); err != nil {
			return err
		}
	}
	return nil
}

func (m *TraceSpans) decode(r *bodyReader) error {
	m.JobID = r.u64()
	n := r.u32()
	if n == 0 {
		return r.done()
	}
	// Each span is at least 49 encoded bytes; bound the allocation by what the
	// body could actually hold.
	if max := uint32(len(r.b) / 49); n > max {
		n = max + 1 // let the reader run dry and report the short body
	}
	m.Spans = make([]obs.Span, 0, n)
	for i := uint32(0); i < n; i++ {
		var s obs.Span
		s.ID = r.u64()
		s.Parent = r.u64()
		s.Proc, s.Stage, s.Worker = r.str(), r.str(), r.str()
		s.Start = time.Unix(0, int64(r.u64()))
		s.Dur = time.Duration(r.u64())
		s.Rows = int64(r.u64())
		s.Bytes = int64(r.u64())
		s.Depth = int(r.u32())
		s.Err = r.str()
		m.Spans = append(m.Spans, s)
	}
	return r.done()
}

// TraceAck confirms the spans were folded into the job's timeline.
type TraceAck struct {
	JobID uint64
	Added uint32 // spans accepted (the rest hit the trace's span cap)
}

// Kind implements Message.
func (*TraceAck) Kind() Kind { return KindTraceAck }

func (m *TraceAck) encode(w *bodyWriter) error {
	w.u64(m.JobID)
	w.u32(m.Added)
	return nil
}

func (m *TraceAck) decode(r *bodyReader) error {
	m.JobID = r.u64()
	m.Added = r.u32()
	return r.done()
}

// Encode builds a frame for msg on the given session.
func Encode(session uint32, msg Message) (Frame, error) {
	var w bodyWriter
	if err := msg.encode(&w); err != nil {
		return Frame{}, err
	}
	return Frame{Kind: msg.Kind(), Session: session, Body: w.b}, nil
}

// Decode parses a frame body into its message.
func Decode(f Frame) (Message, error) {
	m := newMessage(f.Kind)
	if m == nil {
		return nil, fmt.Errorf("wire: no message for kind %s", f.Kind)
	}
	r := bodyReader{b: f.Body}
	if err := m.decode(&r); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", f.Kind, err)
	}
	return m, nil
}

func newMessage(k Kind) Message {
	switch k {
	case KindLogon:
		return &Logon{}
	case KindLogonOK:
		return &LogonOK{}
	case KindLogoff:
		return &Logoff{}
	case KindRunSQL:
		return &RunSQL{}
	case KindStmtSuccess:
		return &StmtSuccess{}
	case KindRecordHeader:
		return &RecordHeader{}
	case KindRecords:
		return &Records{}
	case KindEndStatement:
		return &EndStatement{}
	case KindFailure:
		return &Failure{}
	case KindBeginLoad:
		return &BeginLoad{}
	case KindLoadOK:
		return &LoadOK{}
	case KindAttachLoad:
		return &AttachLoad{}
	case KindAttachOK:
		return &AttachOK{}
	case KindDataChunk:
		return &DataChunk{}
	case KindChunkAck:
		return &ChunkAck{}
	case KindEndAcquire:
		return &EndAcquire{}
	case KindAcquireDone:
		return &AcquireDone{}
	case KindApplyDML:
		return &ApplyDML{}
	case KindApplyResult:
		return &ApplyResult{}
	case KindEndLoad:
		return &EndLoad{}
	case KindLoadDone:
		return &LoadDone{}
	case KindBeginExport:
		return &BeginExport{}
	case KindExportOK:
		return &ExportOK{}
	case KindExportChunkRq:
		return &ExportChunkRq{}
	case KindExportChunk:
		return &ExportChunk{}
	case KindEndExport:
		return &EndExport{}
	case KindBeginStream:
		return &BeginStream{}
	case KindStreamOK:
		return &StreamOK{}
	case KindDeltaFrame:
		return &DeltaFrame{}
	case KindDeltaAck:
		return &DeltaAck{}
	case KindEndStream:
		return &EndStream{}
	case KindStreamDone:
		return &StreamDone{}
	case KindTraceSpans:
		return &TraceSpans{}
	case KindTraceAck:
		return &TraceAck{}
	default:
		return nil
	}
}
