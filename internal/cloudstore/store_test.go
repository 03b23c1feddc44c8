package cloudstore

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestMemStorePutGet(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("jobs/1/part-000.csv", bytes.NewReader([]byte("hello"))); err != nil {
		t.Fatal(err)
	}
	r, err := s.Get("jobs/1/part-000.csv")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if string(data) != "hello" {
		t.Errorf("got %q", data)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("missing object returned")
	}
	if err := s.Put("", bytes.NewReader(nil)); err == nil {
		t.Error("empty key accepted")
	}
	n, err := s.Size("jobs/1/part-000.csv")
	if err != nil || n != 5 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if _, err := s.Size("missing"); err == nil {
		t.Error("Size of missing object succeeded")
	}
}

func TestMemStoreListDelete(t *testing.T) {
	s := NewMemStore()
	for _, k := range []string{"a/2", "a/1", "b/1", "a/3"} {
		if err := s.Put(k, bytes.NewReader([]byte(k))); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"a/1", "a/2", "a/3"}) {
		t.Errorf("List = %v", keys)
	}
	if err := s.Delete("a/2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a/2"); err != nil {
		t.Error("double delete should be a no-op")
	}
	keys, _ = s.List("a/")
	if !reflect.DeepEqual(keys, []string{"a/1", "a/3"}) {
		t.Errorf("after delete List = %v", keys)
	}
}

func TestMemStoreOverwrite(t *testing.T) {
	s := NewMemStore()
	s.Put("k", bytes.NewReader([]byte("v1")))
	s.Put("k", bytes.NewReader([]byte("v2")))
	r, _ := s.Get("k")
	data, _ := io.ReadAll(r)
	if string(data) != "v2" {
		t.Errorf("overwrite failed: %q", data)
	}
	puts, n := s.Stats()
	if puts != 2 || n != 4 {
		t.Errorf("Stats = %d, %d", puts, n)
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i%5))
			for j := 0; j < 50; j++ {
				s.Put(key, bytes.NewReader([]byte{byte(j)}))
				s.Get(key)
				s.List("")
			}
		}(i)
	}
	wg.Wait()
	keys, _ := s.List("")
	if len(keys) != 5 {
		t.Errorf("got %d keys", len(keys))
	}
}

func TestThrottledStoreBandwidth(t *testing.T) {
	mem := NewMemStore()
	link := &Link{BytesPerSec: 1 << 20} // 1 MiB/s
	ts := &ThrottledStore{Store: mem, Link: link}
	payload := make([]byte, 256<<10) // 256 KiB -> ~250ms
	start := time.Now()
	if err := ts.Put("k", bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 200*time.Millisecond {
		t.Errorf("throttled upload finished too fast: %v", el)
	}
	if n, _ := mem.Size("k"); n != int64(len(payload)) {
		t.Errorf("stored %d bytes", n)
	}
}

func TestThrottledStoreSharedPipe(t *testing.T) {
	mem := NewMemStore()
	link := &Link{BytesPerSec: 1 << 20}
	ts := &ThrottledStore{Store: mem, Link: link}
	payload := make([]byte, 128<<10) // each ~125ms; two concurrent must serialize
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts.Put(string(rune('a'+i)), bytes.NewReader(payload))
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el < 200*time.Millisecond {
		t.Errorf("shared pipe not enforced: %v", el)
	}
}

// brokenReader yields some bytes, then fails — an upload whose source dies
// mid-stream.
type brokenReader struct {
	data []byte
	err  error
	off  int
}

func (r *brokenReader) Read(p []byte) (int, error) {
	if r.off < len(r.data) {
		n := copy(p, r.data[r.off:])
		r.off += n
		return n, nil
	}
	return 0, r.err
}

// TestMemStorePutErroringReader is the partial-read regression test: a Put
// whose reader errors mid-stream must fail without leaving a truncated
// object visible, and must not clobber a pre-existing object under the key.
func TestMemStorePutErroringReader(t *testing.T) {
	s := NewMemStore()
	bang := io.ErrUnexpectedEOF
	if err := s.Put("k", &brokenReader{data: []byte("part"), err: bang}); err == nil {
		t.Fatal("erroring reader accepted")
	}
	if _, err := s.Get("k"); err == nil {
		t.Fatal("truncated object visible after failed put")
	}
	if _, err := s.Size("k"); err == nil {
		t.Fatal("Size sees object after failed put")
	}

	// A failed overwrite must preserve the previous version intact.
	if err := s.Put("k", bytes.NewReader([]byte("good-v1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", &brokenReader{data: []byte("bad"), err: bang}); err == nil {
		t.Fatal("erroring overwrite accepted")
	}
	r, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if string(data) != "good-v1" {
		t.Errorf("failed overwrite corrupted object: %q", data)
	}
}

// TestDirStorePutErroringReader: same invariant for the on-disk store (tmp
// file + rename must keep half-written data invisible).
func TestDirStorePutErroringReader(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", bytes.NewReader([]byte("good-v1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", &brokenReader{data: []byte("bad"), err: io.ErrUnexpectedEOF}); err == nil {
		t.Fatal("erroring overwrite accepted")
	}
	r, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if string(data) != "good-v1" {
		t.Errorf("failed overwrite corrupted object: %q", data)
	}
	keys, _ := s.List("")
	if len(keys) != 1 {
		t.Errorf("stray keys after failed put: %v", keys)
	}
}

// slowStore stalls every Put until released.
type slowStore struct {
	Store
	delay time.Duration
}

func (s *slowStore) Put(key string, r io.Reader) error {
	time.Sleep(s.delay)
	return s.Store.Put(key, r)
}

func TestBulkLoaderPutTimeout(t *testing.T) {
	mem := NewMemStore()
	slow := &slowStore{Store: mem, delay: 200 * time.Millisecond}
	b := NewBulkLoader(slow, LoaderConfig{PutTimeout: 20 * time.Millisecond})
	_, err := b.UploadBytes([]byte("x"), "k")
	te, ok := err.(*TimeoutError)
	if !ok {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if !te.Timeout() || !te.Transient() || te.Key != "k" {
		t.Errorf("TimeoutError = %+v", te)
	}

	// Generous bound: the put completes in time.
	fast := NewBulkLoader(mem, LoaderConfig{PutTimeout: 5 * time.Second})
	if _, err := fast.UploadBytes([]byte("y"), "k2"); err != nil {
		t.Fatal(err)
	}
	if n, err := mem.Size("k2"); err != nil || n != 1 {
		t.Errorf("Size(k2) = %d, %v", n, err)
	}
}

func TestLinkOnTransfer(t *testing.T) {
	mem := NewMemStore()
	link := &Link{BytesPerSec: 1 << 20}
	var gotBytes int
	var gotDur time.Duration
	link.OnTransfer = func(bytes int, d time.Duration) {
		gotBytes += bytes
		gotDur += d
	}
	ts := &ThrottledStore{Store: mem, Link: link}
	payload := make([]byte, 64<<10) // ~62ms at 1 MiB/s
	if err := ts.Put("k", bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if gotBytes != len(payload) {
		t.Errorf("OnTransfer saw %d bytes, want %d", gotBytes, len(payload))
	}
	if gotDur < 40*time.Millisecond {
		t.Errorf("OnTransfer duration %v, want >= 40ms for a throttled upload", gotDur)
	}
}

// TestDirStoreConcurrentPutSameKey: concurrent puts to one key (a retry
// racing an abandoned timed-out attempt) must never interleave — each put
// writes a uniquely named temp file, so the installed object is always one
// attempt's complete bytes. Regression test for the shared fixed ".tmp"
// path.
func TestDirStoreConcurrentPutSameKey(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte("a"), 1<<20)
	b := bytes.Repeat([]byte("b"), 768<<10)
	for i := 0; i < 20; i++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, content := range [][]byte{a, b} {
			wg.Add(1)
			go func(content []byte) {
				defer wg.Done()
				<-start
				// Hide bytes.Reader's WriteTo fast path so the copy into
				// the temp file proceeds in small chunks, giving the two
				// puts a real window to interleave.
				r := struct{ io.Reader }{bytes.NewReader(content)}
				if err := s.Put("k", r); err != nil {
					t.Error(err)
				}
			}(content)
		}
		close(start)
		wg.Wait()
		r, err := s.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r)
		r.Close()
		if !bytes.Equal(data, a) && !bytes.Equal(data, b) {
			t.Fatalf("iteration %d: object is a corrupt interleaving (%d bytes)", i, len(data))
		}
		keys, _ := s.List("")
		if len(keys) != 1 {
			t.Fatalf("iteration %d: stray keys %v", i, keys)
		}
	}
}

// TestUploadBytesRetryAfterTimeout: a timed-out UploadBytes abandons its put
// attempt, but the attempt reads the buffer through its own reader, so the
// caller can retry (and even return) while the stale attempt finishes in the
// background without racing the retry — the reader-sharing regression the
// race detector catches.
func TestUploadBytesRetryAfterTimeout(t *testing.T) {
	content := bytes.Repeat([]byte("x,y,z\n"), 4<<10)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowStore{Store: store, delay: 100 * time.Millisecond}
	b := NewBulkLoader(slow, LoaderConfig{PutTimeout: 10 * time.Millisecond})
	if _, err := b.UploadBytes(content, "k"); err == nil {
		t.Fatal("timeout expected")
	} else if _, ok := err.(*TimeoutError); !ok {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}

	// Retry immediately while the abandoned attempt is still in flight.
	fast := NewBulkLoader(store, LoaderConfig{})
	n, err := fast.UploadBytes(content, "k")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Errorf("uploaded %d bytes, want %d", n, len(content))
	}

	// Let the abandoned attempt complete; the object must stay intact.
	time.Sleep(200 * time.Millisecond)
	r, err := store.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if !bytes.Equal(data, content) {
		t.Errorf("object corrupted after late completion: %d bytes, want %d", len(data), len(content))
	}
}
