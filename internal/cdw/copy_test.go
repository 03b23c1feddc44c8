package cdw

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"etlvirt/internal/cloudstore"
)

// gzipRows returns a gzip object holding the integers first..first+n-1, one
// per CSV line.
func gzipRows(first, n int) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for i := first; i < first+n; i++ {
		fmt.Fprintf(zw, "%d\n", i)
	}
	zw.Close() // into a bytes.Buffer, which cannot fail
	return buf.Bytes()
}

// TestCopyGzipReaderReuse checks that the pooled gzip readers COPY inflates
// through are never poisoned by a failed object: a manifest COPY of several
// objects lands every row, a COPY that includes a torn object fails as a
// whole, and a clean COPY after it lands every row again. Several engines
// run the sequence at once so the race detector sees readers cross between
// goroutines.
func TestCopyGzipReaderReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copyGzipSequence(t)
		}()
	}
	wg.Wait()
}

func copyGzipSequence(t *testing.T) {
	store := cloudstore.NewMemStore()
	e := NewEngine(store, Options{})
	if _, err := e.ExecSQL("CREATE TABLE stage (a BIGINT)"); err != nil {
		t.Error(err)
		return
	}
	const perObject = 300
	var names []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("part-%05d.csv.gz", i)
		store.Put("z/"+name, bytes.NewReader(gzipRows(i*perObject+1, perObject)))
		names = append(names, "'"+name+"'")
	}
	good := gzipRows(1, perObject)
	store.Put("z/torn-header.csv.gz", bytes.NewReader(good[:6]))
	store.Put("z/torn-body.csv.gz", bytes.NewReader(good[:len(good)/2]))
	copyFiles := func(files ...string) (*Result, error) {
		return e.ExecSQL("COPY INTO stage FROM 'store://z/' FILES (" + strings.Join(files, ", ") + ")")
	}
	check := func(what string, wantRows int64) {
		res, err := e.ExecSQL("SELECT count(*), sum(a) FROM stage")
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		n, sum := res.Rows[0][0].I, res.Rows[0][1].I
		if wantSum := wantRows * (wantRows + 1) / 2; n != wantRows || (n > 0 && sum != wantSum) {
			t.Errorf("%s: stage holds %d rows summing to %d, want %d summing to %d", what, n, sum, wantRows, wantSum)
		}
	}

	if _, err := copyFiles(names...); err != nil {
		t.Errorf("clean manifest COPY: %v", err)
		return
	}
	check("first clean COPY", 4*perObject)
	if _, err := e.ExecSQL("DELETE FROM stage"); err != nil {
		t.Error(err)
		return
	}

	_, err := copyFiles(names[0], "'torn-header.csv.gz'", names[1])
	var ce *Error
	if !errors.As(err, &ce) || ce.Code != CodeCopyFailed || !strings.Contains(ce.Msg, "gunzip") {
		t.Errorf("COPY with a torn gzip header: err %v, want CodeCopyFailed gunzip", err)
	}
	// A torn body is a failed read, not a malformed row: the staging lane
	// retries CodeCopyFailed, while a row error would be charged to the data.
	_, err = copyFiles(names[0], "'torn-body.csv.gz'", names[1])
	if !errors.As(err, &ce) || ce.Code != CodeCopyFailed {
		t.Errorf("COPY with a torn gzip body: err %v, want CodeCopyFailed", err)
	}
	check("failed COPYs", 0)

	if _, err := copyFiles(names...); err != nil {
		t.Errorf("clean manifest COPY after torn objects: %v", err)
		return
	}
	check("clean COPY after torn objects", 4*perObject)
}
