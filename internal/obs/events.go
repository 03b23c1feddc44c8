package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one structured entry in the node's causal record: a job or stream
// lifecycle step (a stream's batch_commit carries its controller decision),
// a retry, or an injected fault.
// TraceID ties the event to the distributed trace it happened under.
type Event struct {
	Seq     uint64         `json:"seq"`
	Time    time.Time      `json:"time"`
	Type    string         `json:"type"`
	TraceID string         `json:"trace_id,omitempty"` // 16 hex digits
	Job     uint64         `json:"job,omitempty"`
	Msg     string         `json:"msg,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// EventLog is a bounded ring of recent events. Writers never block and never
// allocate beyond the ring: once full, the oldest entry is overwritten and
// counted as dropped. An optional sink receives every recorded event as one
// JSON line.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // seq of the next event to be recorded

	recorded int64
	dropped  int64 // overwritten before being drained past

	sink    io.Writer
	sinkErr error // first sink failure; sink is disabled after it
}

// NewEventLog returns a ring holding up to capacity events (non-positive
// selects 1024).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// SetSink mirrors every recorded event to w as one JSON line. The write
// happens under the log's lock, so w need not be safe for concurrent use;
// the first write error disables the sink.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.sinkErr = nil
	l.mu.Unlock()
}

// Add records one event, stamping its sequence number and (when unset) its
// time. Safe on a nil log (events disabled) and from any goroutine.
func (l *EventLog) Add(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.next
	l.next++
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[e.Seq%uint64(cap(l.buf))] = e
		l.dropped++
	}
	l.recorded++
	if l.sink != nil && l.sinkErr == nil {
		line, err := json.Marshal(e)
		if err == nil {
			line = append(line, '\n')
			_, err = l.sink.Write(line)
		}
		if err != nil {
			l.sinkErr = fmt.Errorf("event sink: %w", err)
		}
	}
}

// Events returns the retained events with Seq >= since, oldest first.
func (l *EventLog) Events(since uint64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	lo := uint64(0)
	if n := uint64(len(l.buf)); l.next > n {
		lo = l.next - n
	}
	if since > lo {
		lo = since
	}
	for seq := lo; seq < l.next; seq++ {
		out = append(out, l.buf[seq%uint64(cap(l.buf))])
	}
	return out
}

// WriteJSONL drains the retained events with Seq >= since to w, one JSON
// object per line.
func (l *EventLog) WriteJSONL(w io.Writer, since uint64) error {
	for _, e := range l.Events(since) {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// Recorded counts events accepted into the ring since startup.
func (l *EventLog) Recorded() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recorded
}

// Dropped counts ring entries overwritten by newer events.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// SinkErr reports the first sink write failure, if any.
func (l *EventLog) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}
