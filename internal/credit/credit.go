// Package credit implements the CreditManager of §5: a per-node credit pool
// providing lightweight back-pressure across the acquisition pipeline.
//
// A session must acquire a credit before handing a data chunk to conversion;
// the credit travels with the chunk through the DataConverter and FileWriter
// stages and is released just before the converted data is written to disk.
// When the pool is empty the session blocks, slowing acquisition until the
// downstream stages catch up. A stream's delta frame holds its credit the
// same way, from before conversion until its records are in the batch spool,
// so no credit waits on another holder's progress. One CreditManager is
// shared by all concurrent ETL jobs on a virtualizer node.
//
// The manager also keeps a byte ledger of in-flight chunk memory. When a
// configured memory limit is exceeded the node fails the acquisition — this
// models the out-of-memory crash the paper reports when the pool was sized
// at one million credits (§9, Figure 10).
package credit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOutOfMemory reports that in-flight chunk bytes exceeded the node's
// memory budget. It corresponds to the Hyper-Q OOM crash in the paper's
// credit-scaling experiment.
var ErrOutOfMemory = errors.New("credit: in-flight data exceeds node memory budget")

// Manager is a credit pool. The zero value is not usable; use NewManager.
type Manager struct {
	slots chan struct{} // one buffered slot per credit; a held credit fills one

	mu      sync.Mutex
	inFlite int64 // bytes currently charged to credits
	memCap  int64 // 0 = unlimited
	peak    int64 // max observed in-flight bytes

	waits    atomic.Int64 // number of Acquire calls that blocked
	acquires atomic.Int64

	observer func(wait time.Duration, blocked bool) // under mu
}

// SetObserver installs a callback invoked after every successful Acquire
// with the time the caller spent waiting for a credit and whether it had to
// block at all. The virtualizer node wires this into its credit-wait
// histogram; nil disables observation.
func (m *Manager) SetObserver(fn func(wait time.Duration, blocked bool)) {
	m.mu.Lock()
	m.observer = fn
	m.mu.Unlock()
}

// NewManager returns a pool with the given number of credits and an optional
// in-flight memory cap in bytes (0 disables the cap).
func NewManager(credits int, memCap int64) *Manager {
	if credits < 1 {
		credits = 1
	}
	return &Manager{slots: make(chan struct{}, credits), memCap: memCap}
}

// Credit is an acquired credit charged with the bytes of one chunk. Release
// it exactly once.
type Credit struct {
	m     *Manager
	bytes int64
	done  bool
}

// Acquire blocks until a credit is available or ctx is cancelled. bytes is
// the chunk size charged to the node's memory ledger. If accepting the chunk
// would exceed the memory cap, Acquire fails with ErrOutOfMemory — the
// paper's unbounded-credit failure mode.
func (m *Manager) Acquire(ctx context.Context, bytes int64) (*Credit, error) {
	start := time.Now()
	m.acquires.Add(1)
	blocked := false
	select {
	case m.slots <- struct{}{}:
	default:
		blocked = true
		m.waits.Add(1)
		select {
		case m.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		<-m.slots
		return nil, err
	}
	m.mu.Lock()
	if m.memCap > 0 && m.inFlite+bytes > m.memCap {
		m.mu.Unlock()
		<-m.slots
		return nil, ErrOutOfMemory
	}
	m.inFlite += bytes
	if m.inFlite > m.peak {
		m.peak = m.inFlite
	}
	observer := m.observer
	m.mu.Unlock()
	if observer != nil {
		observer(time.Since(start), blocked)
	}
	return &Credit{m: m, bytes: bytes}, nil
}

// Release returns the credit to the pool. Releasing twice panics: it would
// silently inflate the pool.
func (c *Credit) Release() {
	if c.done {
		panic("credit: double release")
	}
	c.done = true
	m := c.m
	m.mu.Lock()
	m.inFlite -= c.bytes
	m.mu.Unlock()
	<-m.slots // after the ledger, so the next holder sees the bytes freed
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Total        int
	Available    int
	InFlight     int64 // bytes charged to outstanding credits
	PeakInFlight int64
	Acquires     int64
	Waits        int64 // acquires that had to block
}

// Stats returns a snapshot of the pool.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Total:        cap(m.slots),
		Available:    cap(m.slots) - len(m.slots),
		InFlight:     m.inFlite,
		PeakInFlight: m.peak,
		Acquires:     m.acquires.Load(),
		Waits:        m.waits.Load(),
	}
}
