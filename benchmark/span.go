package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the program. Spans of one operation share Op; Parent
// is the span that caused this one (0 for an operation's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced windows pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span identifier so children can name their parent before
// the parent's end time is known.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a finished span under a reserved (or fresh, if id is 0)
// identifier and returns that identifier.
func (r *recorder) add(id, parent, op uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.next.Add(1)
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// snapshot returns the spans recorded so far, ordered by start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover (children may
// overlap one another, so their union is taken, clipped to the parent).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - coveredBy(s, children[s.ID]))
	}
	return out
}

// coveredBy is the length of the union of kids' intervals inside parent's.
func coveredBy(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return covered
}

// writeSpans writes one JSON object per line, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}
