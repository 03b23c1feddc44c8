// Package bufown is the bufown analyzer fixture: pool-buffer ownership over
// multi-path control flow.
package bufown

import (
	"context"
	"sync"
)

var pool = sync.Pool{New: func() any { return make([]byte, 0, 1024) }}

func getBuf(capHint int) []byte { return pool.Get().([]byte)[:0] }

func putBuf(b []byte) { pool.Put(b) }

type task struct {
	payload []byte //etlvirt:owns
	rows    int
}

type sink struct {
	ch chan task
}

// leakOnErrorPath loses the buffer when validation fails: the happy path
// releases, the error path returns early.
func leakOnErrorPath(n int) error {
	buf := getBuf(n) // want "buffer buf from getBuf may reach a return without putBuf"
	if n > 1024 {
		return errTooBig // leaks buf
	}
	use(buf)
	putBuf(buf)
	return nil
}

// balancedBothPaths releases on every path and is clean.
func balancedBothPaths(n int) error {
	buf := getBuf(n)
	if n > 1024 {
		putBuf(buf)
		return errTooBig
	}
	use(buf)
	putBuf(buf)
	return nil
}

// useAfterPut touches the buffer after recycling it — the classic
// len-after-put bug.
func useAfterPut(n int) int {
	buf := getBuf(n)
	use(buf)
	putBuf(buf)
	return len(buf) // want "use of buf after putBuf"
}

// doublePutOneBranch releases twice when the condition holds.
func doublePutOneBranch(n int) {
	buf := getBuf(n)
	if n > 1024 {
		putBuf(buf)
	}
	putBuf(buf) // want "double putBuf of buf"
}

// channelHandOff transfers ownership with the send; clean.
func channelHandOff(s *sink, n int) {
	buf := getBuf(n)
	s.ch <- task{payload: buf, rows: n}
}

// useAfterHandOff touches the buffer after the send transferred it.
func useAfterHandOff(s *sink, n int) int {
	buf := getBuf(n)
	s.ch <- task{payload: buf, rows: n}
	return len(buf) // want "use of buf after its ownership was transferred"
}

// consumeOwned receives ownership via the directive and releases; clean.
//
//etlvirt:owns b
func consumeOwned(b []byte) {
	use(b)
	putBuf(b)
}

// dropOwned receives ownership via the directive and loses it on one path.
//
//etlvirt:owns b
func dropOwned(b []byte, fail bool) error { // want "buffer b from getBuf may reach a return without putBuf"
	if fail {
		return errTooBig // leaks b
	}
	putBuf(b)
	return nil
}

// sinkTransfers declares that it takes ownership of its argument.
//
//etlvirt:transfers b
func sinkTransfers(b []byte) {
	putBuf(b)
}

// callTransfer hands the buffer to a transfers-annotated callee; clean.
func callTransfer(n int) {
	buf := getBuf(n)
	sinkTransfers(buf)
}

// putAfterTransfer releases a buffer a callee now owns.
func putAfterTransfer(n int) {
	buf := getBuf(n)
	sinkTransfers(buf)
	putBuf(buf) // want "putBuf of buf after its ownership was transferred"
}

// rangeOwnedField: each received task owns its payload via the field
// directive; the error path drops it.
func rangeOwnedField(s *sink) {
	for t := range s.ch { // want "buffer t.payload from getBuf may reach a return without putBuf"
		if t.rows == 0 {
			continue // leaks t.payload
		}
		use(t.payload)
		putBuf(t.payload)
	}
}

// rangeOwnedFieldClean releases every received payload; clean.
func rangeOwnedFieldClean(s *sink) {
	for t := range s.ch {
		if t.rows == 0 {
			putBuf(t.payload)
			continue
		}
		use(t.payload)
		putBuf(t.payload)
	}
}

// deferredPut releases via defer on all paths, including the early return.
func deferredPut(n int) error {
	buf := getBuf(n)
	defer putBuf(buf)
	if n > 1024 {
		return errTooBig
	}
	use(buf)
	return nil
}

// escapeToGoroutine captures an owned buffer in a goroutine without a
// transfer annotation.
func escapeToGoroutine(n int) {
	buf := getBuf(n)
	go func() {
		use(buf) // want "owned buffer buf captured by goroutine"
	}()
	putBuf(buf)
}

// returnOwned hands the buffer to the caller; clean (the caller owns it).
func returnOwned(n int) []byte {
	return getBuf(n)
}

// suppressed pins the escape hatch: the leak is acknowledged.
func suppressed(n int) error {
	buf := getBuf(n) //nolint:bufown // intentional: freed by finalizer in this fixture's story
	if n > 1024 {
		return errTooBig
	}
	putBuf(buf)
	return nil
}

func use(b []byte) {}

var errTooBig error

// rangeRegistryView iterates a registry of tasks without taking ownership:
// only a channel receive is a hand-off, so walking a map of owned-field
// structs (a debug view over live jobs) must not seed facts; clean.
func rangeRegistryView(reg map[int]task) int {
	total := 0
	for _, t := range reg {
		total += len(t.payload)
	}
	return total
}

// lane keeps the context it was built under.
type lane struct {
	ctx  context.Context
	name string
}

func nameOf(ctx context.Context) string { return "" }

// laneWithContext stores a context in a literal field and reads it again in
// the same literal: a context never came from getBuf, so handing it to the
// literal transfers nothing; clean.
func laneWithContext(ctx context.Context) *lane {
	return &lane{ctx: ctx, name: nameOf(ctx)}
}

// laneAfterHandOff builds the same literal after sending its buffer away:
// the context stays clean, the buffer does not.
func laneAfterHandOff(ctx context.Context, s *sink, n int) *lane {
	buf := getBuf(n)
	s.ch <- task{payload: buf, rows: n}
	return &lane{ctx: ctx, name: nameOf(ctx) + string(buf)} // want "use of buf after its ownership was transferred"
}
