package cloudstore

import (
	"bytes"
	"fmt"
	"time"
)

// LoaderConfig tunes the bulk loader.
type LoaderConfig struct {
	// PutTimeout bounds each object-store put; zero disables the bound. A
	// put that exceeds it fails with *TimeoutError, which classifies as
	// transient so the caller's retry policy re-drives the upload. The
	// abandoned attempt keeps running in the background, but it owns its
	// reader (each attempt reads the buffer through its own reader) and
	// stores write complete objects atomically, so a late completion writes
	// the same bytes and cannot corrupt a concurrent retry.
	PutTimeout time.Duration
}

// TimeoutError reports an object-store operation that exceeded its
// per-operation bound.
type TimeoutError struct {
	Op    string
	Key   string
	Limit time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cloudstore: %s %q exceeded %v", e.Op, e.Key, e.Limit)
}

// Timeout satisfies net.Error-style checks.
func (e *TimeoutError) Timeout() bool { return true }

// Transient marks the timeout as retryable.
func (e *TimeoutError) Transient() bool { return true }

// BulkLoader is the vendor upload utility equivalent ("aws s3 cp" / AzCopy):
// it copies finished intermediate files into the object store.
type BulkLoader struct {
	store Store
	cfg   LoaderConfig
}

// NewBulkLoader returns a loader that uploads into store.
func NewBulkLoader(store Store, cfg LoaderConfig) *BulkLoader {
	return &BulkLoader{store: store, cfg: cfg}
}

// UploadBytes uploads an in-memory file to the object key and returns the
// number of bytes uploaded. The put is bounded by cfg.PutTimeout when set.
// Each attempt reads data through its own reader, so when a timeout abandons
// the attempt goroutine, nothing the caller still holds is shared with it:
// the caller can retry the key immediately while the stale attempt finishes
// (or fails) in the background. On timeout the caller gets a transient
// *TimeoutError.
func (b *BulkLoader) UploadBytes(data []byte, key string) (int64, error) {
	attempt := func() error { return b.store.Put(key, bytes.NewReader(data)) }
	var err error
	if b.cfg.PutTimeout <= 0 {
		err = attempt()
	} else {
		done := make(chan error, 1)
		go func() { done <- attempt() }()
		timer := time.NewTimer(b.cfg.PutTimeout)
		defer timer.Stop()
		select {
		case err = <-done:
		case <-timer.C:
			err = &TimeoutError{Op: "put", Key: key, Limit: b.cfg.PutTimeout}
		}
	}
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}
