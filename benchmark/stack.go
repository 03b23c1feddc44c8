package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/core"
)

// stack is the system under test, assembled in-process the way the daemons
// assemble it: one object store shared by the virtualizer node and the CDW
// engine, the engine behind its network server, the node dialling it over
// real loopback TCP.
type stack struct {
	seam     *storeSeam
	eng      *cdw.Engine
	srv      *cdwnet.Server
	node     *core.Node
	nodeAddr string

	live *liveSeams
}

// liveSeams collects what the program's public observation points report
// while a window runs. It is armed only for the traced window; disarmed, each
// seam costs one atomic load.
type liveSeams struct {
	armed atomic.Bool
	rec   *recorder

	mu       sync.Mutex
	reports  []timedReport
	cdwReqs  int64
	cdwBusy  time.Duration
	cdwFails int64  // requests the engine answered with any error, data errors included
	cdwInfra int64  // of those, infrastructure failures
	cdwRoot  uint64 // synthetic root span the CDW server's request spans hang off
	armedAt  time.Time
}

// timedReport is a job report stamped with the time the node filed it.
type timedReport struct {
	core.JobReport
	Done time.Time
}

// newStack assembles the stack on the node settings all workloads share;
// credits sizes the node's credit pool (0 = node default).
func newStack(credits int) (*stack, error) {
	s := &stack{live: &liveSeams{}}
	s.seam = &storeSeam{Store: cloudstore.NewMemStore(), live: s.live}
	s.eng = cdw.NewEngine(s.seam, cdw.Options{})
	s.srv = cdwnet.NewServer(s.eng)
	s.srv.SetObserver(s.live.cdwRequest)
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting CDW server: %w", err)
	}
	s.node = core.NewNode(core.Config{
		CDWAddr:           addr,
		FileSizeThreshold: nodeFileSizeThreshold,
		Gzip:              nodeGzip,
		Credits:           credits,
		OnJobDone:         s.live.jobDone,
	}, s.seam)
	if s.nodeAddr, err = s.node.Listen("127.0.0.1:0"); err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("starting virtualizer node: %w", err)
	}
	return s, nil
}

func (s *stack) close() {
	s.node.Close()
	s.srv.Close()
}

// exec runs DDL or a check query straight on the engine, outside any timed
// operation and without touching the network path being measured.
func (s *stack) exec(sql string) (*cdw.Result, error) {
	res, err := s.eng.ExecSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return res, nil
}

// count returns SELECT COUNT(*) of table.
func (s *stack) count(table string) (int64, error) {
	res, err := s.exec("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].I, nil
}

// arm starts collecting live-seam observations into rec; disarm stops it and
// closes the CDW server's synthetic root span.
func (l *liveSeams) arm(rec *recorder) {
	l.mu.Lock()
	l.rec = rec
	l.cdwRoot = rec.newID()
	l.armedAt = time.Now()
	l.mu.Unlock()
	l.armed.Store(true)
}

func (l *liveSeams) disarm() {
	l.armed.Store(false)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec.add(l.cdwRoot, 0, 0, "cdw.server", l.armedAt, time.Now())
}

func (l *liveSeams) jobDone(r core.JobReport) {
	if !l.armed.Load() {
		return
	}
	l.mu.Lock()
	l.reports = append(l.reports, timedReport{JobReport: r, Done: time.Now()})
	l.mu.Unlock()
}

// cdwRequest observes one request served by the CDW server. The observer
// carries no statement identity, so the request cannot be tied to the client
// operation that caused it; its span hangs off the server's own root.
func (l *liveSeams) cdwRequest(op string, d time.Duration, errCode int) {
	if !l.armed.Load() {
		return
	}
	end := time.Now()
	l.mu.Lock()
	l.cdwReqs++
	l.cdwBusy += d
	if errCode != 0 {
		l.cdwFails++
		if infraCode(errCode) {
			l.cdwInfra++
		}
	}
	root, rec := l.cdwRoot, l.rec
	l.mu.Unlock()
	rec.add(0, root, 0, "cdw."+op, end.Add(-d), end)
}

// storeSeam times the object store from outside: the same wrapper is handed
// to the node (puts) and the engine (COPY's gets).
type storeSeam struct {
	cloudstore.Store
	live *liveSeams

	puts, putBytes, gets, failed atomic.Int64
	putBusy, getBusy             atomic.Int64 // ns

	mu    sync.Mutex
	calls []storeCall // resolved to operations once job reports are in
}

// storeCall is one timed store call awaiting attribution to an operation.
type storeCall struct {
	Name       string
	Key        string
	Start, End time.Time
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *storeSeam) Put(key string, r io.Reader) error {
	if !s.live.armed.Load() {
		return s.Store.Put(key, r)
	}
	cr := &countingReader{r: r}
	start := time.Now()
	err := s.Store.Put(key, cr)
	end := time.Now()
	s.puts.Add(1)
	s.putBytes.Add(cr.n)
	s.putBusy.Add(end.Sub(start).Nanoseconds())
	s.observe("cloudstore.put", key, start, end, err)
	return err
}

func (s *storeSeam) Get(key string) (io.ReadCloser, error) {
	if !s.live.armed.Load() {
		return s.Store.Get(key)
	}
	start := time.Now()
	rc, err := s.Store.Get(key)
	end := time.Now()
	s.gets.Add(1)
	s.getBusy.Add(end.Sub(start).Nanoseconds())
	s.observe("cloudstore.get", key, start, end, err)
	return rc, err
}

func (s *storeSeam) observe(name, key string, start, end time.Time, err error) {
	if err != nil {
		s.failed.Add(1)
	}
	s.mu.Lock()
	s.calls = append(s.calls, storeCall{Name: name, Key: key, Start: start, End: end})
	s.mu.Unlock()
}
