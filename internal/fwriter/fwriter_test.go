package fwriter

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestWriterRotation(t *testing.T) {
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: 100, NamePrefix: "s0-"})
	chunk := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ { // 240 bytes -> rotations at >=100
		if err := w.Write(chunk, 1); err != nil {
			t.Fatal(err)
		}
	}
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("got %d files: %+v", len(files), files)
	}
	if files[0].Name != "s0-part-00000.csv" || files[1].Name != "s0-part-00001.csv" {
		t.Errorf("names: %+v", files)
	}
	if files[0].Raw != 120 || files[1].Raw != 120 {
		t.Errorf("sizes: %+v", files)
	}
	if files[0].Rows != 3 || files[1].Rows != 3 {
		t.Errorf("rows: %+v", files)
	}
	data, ok := fs.Bytes(files[0].Name)
	if !ok || len(data) != 120 {
		t.Errorf("stored bytes = %d", len(data))
	}
}

func TestWriterGzip(t *testing.T) {
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: 1 << 20, Gzip: true})
	payload := bytes.Repeat([]byte("abcdef,123\n"), 1000)
	if err := w.Write(payload, 1000); err != nil {
		t.Fatal(err)
	}
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("files = %+v", files)
	}
	f := files[0]
	if !strings.HasSuffix(f.Name, ".csv.gz") {
		t.Errorf("name = %q", f.Name)
	}
	if f.Bytes >= f.Raw {
		t.Errorf("compression ineffective: %d >= %d", f.Bytes, f.Raw)
	}
	data, _ := fs.Bytes(f.Name)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Error("gunzipped content mismatch")
	}
}

// bytesPerRun is testing.AllocsPerRun measured in heap bytes instead of
// allocation count: a fresh gzip.Writer and a pooled rotation differ by a
// few allocations but by hundreds of KB of compressor state.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWriterGzipRotateAllocBound gates the reason gzPool exists: after a
// warm-up rotation, each further gzip rotation through one Writer reuses a
// pooled compressor, so it allocates far less than building a fresh
// gzip.Writer at the pool's level would. The bound leaves room for the race
// detector, under which sync.Pool drops a quarter of its Puts. The rotated
// files still round-trip through gzip.
func TestWriterGzipRotateAllocBound(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh,12345678,abcdefgh\n"), 64)
	fresh := bytesPerRun(20, func() {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzLevel)
		zw.Write(payload)
		zw.Close()
	})
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: len(payload), Gzip: true})
	var last FinishedFile
	rotate := func() {
		if err := w.Write(payload, 64); err != nil {
			t.Fatal(err)
		}
		got := w.TakeFinished()
		if len(got) != 1 {
			t.Fatalf("write did not rotate exactly one file: %+v", got)
		}
		last = got[0]
	}
	pooled := bytesPerRun(100, rotate) // the warm-up call builds the pool's compressor
	t.Logf("heap bytes per gzip rotation: pooled %.0f, fresh gzip.Writer %.0f", pooled, fresh)
	if pooled > fresh/2 {
		t.Errorf("gzip rotation allocates %.0f B, want well under a fresh gzip.Writer's %.0f B",
			pooled, fresh)
	}
	data, _ := fs.Bytes(last.Name)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Error("gunzipped content mismatch")
	}
}

// TestWriterGzipLevel pins the deflate level of staged files: a gzip file
// is exactly what gzip.NewWriterLevel at BestSpeed writes for the same
// payload, so a silent change of level fails here.
func TestWriterGzipLevel(t *testing.T) {
	var payload []byte
	for i := 0; i < 2000; i++ {
		payload = fmt.Appendf(payload, "C%05d,name %d,2023-%02d-%02d\n", i, i*7919%1000, i%12+1, i%28+1)
	}
	fs := NewMemFS()
	w := NewWriter(fs, Config{Gzip: true})
	if err := w.Write(payload, 2000); err != nil {
		t.Fatal(err)
	}
	files, err := w.Flush()
	if err != nil || len(files) != 1 {
		t.Fatalf("flush: %v %+v", err, files)
	}
	got, _ := fs.Bytes(files[0].Name)
	var want bytes.Buffer
	zw, err := gzip.NewWriterLevel(&want, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(payload)
	zw.Close()
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("staged file is %d B, gzip.BestSpeed writes %d B for the same payload", len(got), want.Len())
	}
}

func TestWriterTakeFinishedOverlapsUploads(t *testing.T) {
	fs := NewMemFS()
	w := NewWriter(fs, Config{SizeThreshold: 10})
	w.Write([]byte("0123456789AB"), 1) // rotates immediately
	got := w.TakeFinished()
	if len(got) != 1 {
		t.Fatalf("TakeFinished = %+v", got)
	}
	if more := w.TakeFinished(); len(more) != 0 {
		t.Errorf("second take = %+v", more)
	}
	w.Write([]byte("more"), 1)
	files, _ := w.Flush()
	if len(files) != 1 {
		t.Errorf("flush = %+v", files)
	}
}

func TestWriterEmptyFlush(t *testing.T) {
	w := NewWriter(NewMemFS(), Config{})
	files, err := w.Flush()
	if err != nil || len(files) != 0 {
		t.Errorf("empty flush: %v %v", files, err)
	}
	// open-but-empty file discarded
	w2 := NewWriter(NewMemFS(), Config{SizeThreshold: 100})
	w2.Write(nil, 0)
	files, err = w2.Flush()
	if err != nil || len(files) != 0 {
		t.Errorf("empty open flush: %v %v", files, err)
	}
}

func TestMemFSDuplicateCreate(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := fs.Create("a"); err == nil {
		t.Error("duplicate create accepted")
	}
	fs.Remove("a")
	if _, err := fs.Create("a"); err != nil {
		t.Errorf("create after remove: %v", err)
	}
}

func TestOnRotateCallback(t *testing.T) {
	fs := NewMemFS()
	var rotated []FinishedFile
	w := NewWriter(fs, Config{
		SizeThreshold: 100,
		NamePrefix:    "r0-",
		OnRotate: func(f FinishedFile, d time.Duration) {
			if d < 0 {
				t.Errorf("rotation duration %v < 0", d)
			}
			rotated = append(rotated, f)
		},
	})
	chunk := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ { // 240 bytes -> two threshold rotations
		if err := w.Write(chunk, 1); err != nil {
			t.Fatal(err)
		}
	}
	files, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated) != len(files) {
		t.Fatalf("OnRotate fired %d times for %d finished files", len(rotated), len(files))
	}
	for i, f := range files {
		if rotated[i] != f {
			t.Errorf("rotation %d = %+v, want %+v", i, rotated[i], f)
		}
	}
}
