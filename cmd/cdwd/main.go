// Command cdwd runs the cloud data warehouse as a standalone server.
//
// The warehouse bulk-loads from an object store shared with the virtualizer
// node; in this deployment a directory tree stands in for the cloud bucket,
// so point -store at the same path etlvirtd uses.
//
// Usage:
//
//	cdwd -listen 127.0.0.1:7001 -store /tmp/etlvirt-store [-init ddl.sql]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/faultinject"
	"etlvirt/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "address to serve the CDW protocol on")
	storeDir := flag.String("store", "", "object-store directory shared with etlvirtd (required)")
	initSQL := flag.String("init", "", "optional file of semicolon-separated DDL to run at startup")
	debugAddr := flag.String("debug", "", "optional address for /healthz, /metrics, /events and /debug/pprof (e.g. 127.0.0.1:7071)")
	faultSpec := flag.String("fault-spec", "", "fault-injection spec for engine-side store reads, e.g. 'store.get:rate=0.05' (empty = off)")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for -fault-spec schedules")
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "cdwd: -store is required")
		os.Exit(2)
	}
	var store cloudstore.Store
	store, err := cloudstore.NewDirStore(*storeDir)
	if err != nil {
		log.Fatalf("cdwd: %v", err)
	}
	if *faultSpec != "" {
		inj, err := faultinject.Parse(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatalf("cdwd: -fault-spec: %v", err)
		}
		store = faultinject.NewStore(inj, store)
		log.Printf("cdwd: fault injection armed (seed %d): %s", *faultSeed, *faultSpec)
	}
	eng := cdw.NewEngine(store, cdw.Options{})

	if *initSQL != "" {
		script, err := os.ReadFile(*initSQL)
		if err != nil {
			log.Fatalf("cdwd: reading init script: %v", err)
		}
		if err := runInit(eng, string(script)); err != nil {
			log.Fatalf("cdwd: init script: %v", err)
		}
	}

	srv := cdwnet.NewServer(eng)
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		requests := reg.Counter("etlvirt_cdwd_requests_total", "Requests served by the CDW engine.")
		errors := reg.Counter("etlvirt_cdwd_errors_total", "Requests that returned an engine error.")
		lat := reg.Histogram("etlvirt_cdwd_request_seconds", "Engine latency per served request.", nil)
		reg.CounterFunc("etlvirt_cdwd_rows_scanned_total", "Rows copied out of base tables by engine scans, after range pruning.", eng.RowsScanned)
		srv.SetObserver(func(_ string, d time.Duration, errCode int) {
			requests.Inc()
			if errCode != 0 {
				errors.Inc()
			}
			lat.ObserveDuration(d)
		})
		events := obs.NewEventLog(0) // the default 1024-entry ring
		srv.SetEventLog(events)
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("cdwd: debug listener: %v", err)
		}
		go func() {
			if err := http.Serve(ln, obs.DebugMux(reg, events)); err != nil {
				log.Printf("cdwd: debug server: %v", err)
			}
		}()
		log.Printf("cdwd: debug endpoints on http://%s", ln.Addr())
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("cdwd: %v", err)
	}
	log.Printf("cdwd: serving on %s, store at %s", addr, *storeDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("cdwd: shutting down")
	srv.Close()
}

func runInit(eng *cdw.Engine, script string) error {
	stmts := splitSQL(script)
	for _, s := range stmts {
		if _, err := eng.ExecSQL(s); err != nil {
			return fmt.Errorf("%q: %w", s, err)
		}
	}
	return nil
}

// splitSQL splits on semicolons outside single-quoted strings.
func splitSQL(src string) []string {
	var out []string
	start := 0
	inStr := false
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\'':
			inStr = !inStr
		case ';':
			if !inStr {
				if s := trimSpace(src[start:i]); s != "" {
					out = append(out, s)
				}
				start = i + 1
			}
		}
	}
	if s := trimSpace(src[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\n' || s[0] == '\t' || s[0] == '\r') {
		s = s[1:]
	}
	for len(s) > 0 {
		c := s[len(s)-1]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
		s = s[:len(s)-1]
	}
	return s
}
