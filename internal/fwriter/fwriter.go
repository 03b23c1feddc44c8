// Package fwriter implements the FileWriter stage of §5: serializing
// converted data chunks into intermediate files sized for the CDW bulk
// loader, rotating at a configurable threshold, and finalizing files
// (optionally gzip-compressing them) for upload.
//
// The FileWriter is deliberately decoupled from conversion so that
// compression jitter cannot stall the DataConverter workers; internal/core
// runs each Writer in its own goroutine fed by a channel.
package fwriter

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
	"time"
)

// MemFS is the in-memory spool the writer rotates files into; Bytes
// retrieves a finished file for upload and Remove discards it afterwards.
type MemFS struct {
	mu       sync.Mutex
	files    map[string]*bytes.Buffer
	sizeHint int
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS {
	return NewMemFSSized(0)
}

// NewMemFSSized returns an empty in-memory FS whose files pre-allocate
// sizeHint bytes of capacity on creation. Callers that know the rotation
// threshold pass it here so file buffers grow once instead of doubling
// their way up through every Write.
func NewMemFSSized(sizeHint int) *MemFS {
	return &MemFS{files: make(map[string]*bytes.Buffer), sizeHint: sizeHint}
}

type memFile struct {
	buf *bytes.Buffer
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Close() error                { return nil }

// Create opens a new file for writing. Name must be unique in the spool.
func (m *MemFS) Create(name string) (io.WriteCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return nil, fmt.Errorf("fwriter: file %q already exists", name)
	}
	buf := bytes.NewBuffer(make([]byte, 0, m.sizeHint))
	m.files[name] = buf
	return &memFile{buf: buf}, nil
}

// Bytes returns the contents of a finished file.
func (m *MemFS) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf, ok := m.files[name]
	if !ok {
		return nil, false
	}
	return buf.Bytes(), true
}

// Remove discards a file after upload.
func (m *MemFS) Remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
}

// Config tunes one Writer. These are the §6 knobs the paper discusses:
// intermediate file size trades write parallelism against per-file copy
// overhead; compression trades CPU for upload bandwidth.
type Config struct {
	// SizeThreshold rotates the current file once it holds at least this
	// many uncompressed bytes. Values below 1 default to 4 MiB.
	SizeThreshold int
	// Gzip compresses finalized files at gzip.BestSpeed (gzLevel). On
	// staged CSV that deflates 2.5–9x faster than DefaultCompression for
	// 3–25 % more bytes, which wins above about 1 MB/s of upload bandwidth.
	Gzip bool
	// NamePrefix distinguishes files from parallel writers.
	NamePrefix string
	// OnRotate, when non-nil, is called each time a file is finalized with
	// the finished file and the time spent closing it out (gzip flush +
	// close). The virtualizer wires this into its rotation histogram.
	OnRotate func(f FinishedFile, d time.Duration)
}

// FinishedFile describes one finalized intermediate file ready for upload.
type FinishedFile struct {
	Name  string
	Rows  int
	Bytes int // bytes written to the FS (compressed size when gzipped)
	Raw   int // uncompressed payload bytes
}

// Writer serializes chunks into rotated files on a MemFS. Not safe for
// concurrent use: run one Writer per goroutine (core spawns several, matching
// the paper's parallel FileWriter processes).
type Writer struct {
	fs  *MemFS
	cfg Config

	seq     int
	cur     io.WriteCloser
	gz      *gzip.Writer
	curName string
	curRaw  int
	curComp *countWriter
	curRows int

	finished []FinishedFile
}

// gzLevel is the deflate level of every staged file (see Config.Gzip).
const gzLevel = gzip.BestSpeed

// gzPool recycles gzip.Writers across file rotations and Writer instances:
// a gzip.Writer carries several hundred KB of compressor state, so building
// one per rotated file would dominate the writer stage's allocations.
var gzPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzLevel) // the level is valid
	return zw
}}

type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// NewWriter returns a Writer on fs.
func NewWriter(fs *MemFS, cfg Config) *Writer {
	if cfg.SizeThreshold < 1 {
		cfg.SizeThreshold = 4 << 20
	}
	return &Writer{fs: fs, cfg: cfg}
}

// Write appends one converted chunk to the current file, rotating first when
// the file has reached the size threshold.
func (w *Writer) Write(data []byte, rows int) error {
	if w.cur == nil {
		if err := w.open(); err != nil {
			return err
		}
	}
	var dst io.Writer = w.curComp
	if w.gz != nil {
		dst = w.gz
	}
	if _, err := dst.Write(data); err != nil {
		return fmt.Errorf("fwriter: writing %s: %w", w.curName, err)
	}
	w.curRaw += len(data)
	w.curRows += rows
	if w.curRaw >= w.cfg.SizeThreshold {
		return w.rotate()
	}
	return nil
}

func (w *Writer) open() error {
	name := fmt.Sprintf("%spart-%05d.csv", w.cfg.NamePrefix, w.seq)
	if w.cfg.Gzip {
		name += ".gz"
	}
	w.seq++
	f, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("fwriter: creating %s: %w", name, err)
	}
	w.cur = f
	w.curName = name
	w.curRaw = 0
	w.curRows = 0
	w.curComp = &countWriter{w: f}
	if w.cfg.Gzip {
		w.gz = gzPool.Get().(*gzip.Writer)
		w.gz.Reset(w.curComp)
	}
	return nil
}

func (w *Writer) rotate() error {
	if w.cur == nil {
		return nil
	}
	start := time.Now()
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			return fmt.Errorf("fwriter: finalizing %s: %w", w.curName, err)
		}
		gzPool.Put(w.gz)
		w.gz = nil
	}
	if err := w.cur.Close(); err != nil {
		return fmt.Errorf("fwriter: closing %s: %w", w.curName, err)
	}
	f := FinishedFile{
		Name:  w.curName,
		Rows:  w.curRows,
		Bytes: w.curComp.n,
		Raw:   w.curRaw,
	}
	w.finished = append(w.finished, f)
	w.cur = nil
	w.curComp = nil
	if w.cfg.OnRotate != nil {
		w.cfg.OnRotate(f, time.Since(start))
	}
	return nil
}

// Flush finalizes the in-progress file (if any) and returns every file
// finished since the previous Flush.
func (w *Writer) Flush() ([]FinishedFile, error) {
	if w.cur != nil && w.curRaw > 0 {
		if err := w.rotate(); err != nil {
			return nil, err
		}
	} else if w.cur != nil {
		// empty open file: discard
		if w.gz != nil {
			w.gz.Close()
			gzPool.Put(w.gz)
			w.gz = nil
		}
		w.cur.Close()
		w.cur = nil
	}
	out := w.finished
	w.finished = nil
	return out, nil
}

// TakeFinished returns files completed by rotation so far without forcing a
// flush, letting the caller overlap uploads with ongoing writes.
func (w *Writer) TakeFinished() []FinishedFile {
	out := w.finished
	w.finished = nil
	return out
}
