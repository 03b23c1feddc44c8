// Package testhost is the shared integration-test harness: the in-process
// EDW + virtualizer + CDW pair the differential tests (chaos, scrub) run
// legacy scripts against, plus the small process/socket helpers the
// multi-binary end-to-end test uses. It exists so every differential test
// builds the same topology the same way — reference EDW on one side,
// fault-injectable virtualized stack on the other — instead of each test
// re-wiring it by hand.
package testhost

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/core"
	"etlvirt/internal/edw"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/faultinject"
	"etlvirt/internal/scrub"
)

// Options configures a StartPair topology.
type Options struct {
	// Seed enables the standard chaos rules (store-put timeouts, CDW query
	// resets) on the virtualized side with this fault seed. Zero runs
	// fault-free.
	Seed int64
	// DDL statements (CDW dialect) executed on both engines before any run.
	DDL []string
	// Node optionally adjusts the virtualizer config after the harness
	// defaults are applied.
	Node func(*core.Config)
}

// Pair is one differential topology: a reference EDW and a virtualizer in
// front of a CDW, both empty-or-identically-seeded, reachable over the same
// legacy wire protocol.
type Pair struct {
	EDW      *edw.Server
	EDWAddr  string
	CDWEng   *cdw.Engine
	Store    *cloudstore.MemStore
	Node     *core.Node
	NodeAddr string
	// Injector is non-nil when Options.Seed enabled fault injection.
	Injector *faultinject.Injector
}

// ChaosRules installs the standard differential-chaos fault rules used across
// the test suite: timeouts on object-store puts, connection resets on CDW
// queries.
func ChaosRules(inj *faultinject.Injector) {
	inj.SetRule(faultinject.OpStorePut,
		faultinject.Rule{Rate: 0.15, Every: 5, Class: faultinject.ClassTimeout})
	inj.SetRule("cdw.query",
		faultinject.Rule{Rate: 0.02, Every: 30, Class: faultinject.ClassReset})
}

// StartPair builds the differential topology and tears it down with the test.
func StartPair(t testing.TB, opts Options) *Pair {
	t.Helper()
	p := &Pair{}

	p.EDW = edw.NewServer()
	addr, err := p.EDW.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("testhost: edw listen: %v", err)
	}
	p.EDWAddr = addr
	t.Cleanup(func() { p.EDW.Close() })

	p.Store = cloudstore.NewMemStore()
	p.CDWEng = cdw.NewEngine(p.Store, cdw.Options{})
	cdwSrv := cdwnet.NewServer(p.CDWEng)
	cdwAddr, err := cdwSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("testhost: cdw listen: %v", err)
	}
	t.Cleanup(func() { cdwSrv.Close() })

	cfg := core.Config{
		CDWAddr:           cdwAddr,
		UploadParallelism: 1, // deterministic store.put order for a fault seed
		FileSizeThreshold: 2 << 10,
		RetryMaxAttempts:  8,
		RetryBaseDelay:    time.Millisecond,
		RetryMaxDelay:     5 * time.Millisecond,
	}
	if opts.Seed != 0 {
		p.Injector = faultinject.New(opts.Seed)
		ChaosRules(p.Injector)
		cfg.FaultInjector = p.Injector
	}
	if opts.Node != nil {
		opts.Node(&cfg)
	}
	p.Node = core.NewNode(cfg, p.Store)
	nodeAddr, err := p.Node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("testhost: node listen: %v", err)
	}
	p.NodeAddr = nodeAddr
	t.Cleanup(func() { p.Node.Close() })

	for _, ddl := range opts.DDL {
		if _, err := p.EDW.Engine().ExecSQL(ddl); err != nil {
			t.Fatalf("testhost: edw ddl: %v\n%s", err, ddl)
		}
		if _, err := p.CDWEng.ExecSQL(ddl); err != nil {
			t.Fatalf("testhost: cdw ddl: %v\n%s", err, ddl)
		}
	}
	return p
}

// Run parses and executes one legacy script against addr (either side of the
// pair), reading input files from files and collecting export output into
// the returned map.
func (p *Pair) Run(t testing.TB, addr, script string, files map[string][]byte) (*etlclient.Result, map[string][]byte) {
	t.Helper()
	s, err := etlscript.Parse(script)
	if err != nil {
		t.Fatalf("testhost: parsing script: %v", err)
	}
	exports := map[string][]byte{}
	res, err := etlclient.Run(s, etlclient.Options{
		Addr:         addr,
		ChunkRecords: 16,
		ReadFile: func(name string) ([]byte, error) {
			data, ok := files[name]
			if !ok {
				return nil, fmt.Errorf("testhost: script references unknown input %q", name)
			}
			return data, nil
		},
		WriteFile: func(name string, data []byte) error {
			exports[name] = append([]byte(nil), data...)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("testhost: script run against %s failed: %v", addr, err)
	}
	return res, exports
}

// Scrub runs the differential scrub over the pair's two engines, EDW as
// reference and CDW as subject.
func (p *Pair) Scrub(t testing.TB, opts scrub.Options) *scrub.Report {
	t.Helper()
	ref := &scrub.EngineSource{Name: "edw", Engine: p.EDW.Engine()}
	sub := &scrub.EngineSource{Name: "virt", Engine: p.CDWEng}
	rep, err := scrub.Run(ref, sub, opts)
	if err != nil {
		t.Fatalf("testhost: scrub: %v", err)
	}
	return rep
}

// State dumps a query's result as sorted, pipe-joined rows — the byte-level
// comparison format of the differential chaos tests.
func State(t testing.TB, eng *cdw.Engine, sql string) []string {
	t.Helper()
	res, err := eng.ExecSQL(sql)
	if err != nil {
		t.Fatalf("testhost: %s: %v", sql, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.Render()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// FaultSeed reads ETLVIRT_FAULT_SEED (the CI chaos matrix variable), falling
// back to def.
func FaultSeed(t testing.TB, def int64) int64 {
	t.Helper()
	s := os.Getenv("ETLVIRT_FAULT_SEED")
	if s == "" {
		return def
	}
	var v int64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		t.Fatalf("ETLVIRT_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// --- multi-process helpers (binary end-to-end tests) ---

// StartProc launches a built binary with output folded into the test log.
// The child is killed and reaped when t finishes, and, where the platform
// allows, killed by the kernel if the test binary itself dies first (a
// -timeout panic runs no cleanups).
func StartProc(t testing.TB, path string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(path, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", path, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd
}

// FreeAddr reserves and releases a listening address for a process to bind.
func FreeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// WaitListening blocks until addr accepts connections or the deadline hits.
func WaitListening(t testing.TB, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server on %s never came up", addr)
}
