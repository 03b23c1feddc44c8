package bench

import (
	"fmt"
	"strings"
	"time"

	"etlvirt"
	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
	"etlvirt/internal/sqlparse"
)

// RunConfig is one experiment run: a workload pushed through a freshly
// assembled stack.
type RunConfig struct {
	Workload     Workload
	Node         core.Config
	CDW          cdw.Options
	Sessions     int
	ChunkRecords int
	ScriptExtra  string // appended to .begin import (maxerrors etc.)
	// UplinkBytesPerSec throttles uploads to the object store.
	UplinkBytesPerSec int64
	// Trace runs the client with distributed tracing enabled and captures
	// the stitched cross-process Chrome trace in PhaseTimes.ChromeTrace.
	Trace bool
}

// PhaseTimes is the measured outcome of one run, phase-split as in Figure 7.
type PhaseTimes struct {
	Acquisition time.Duration
	Application time.Duration
	Other       time.Duration
	Total       time.Duration

	Rows       int64
	Bytes      int64
	Inserted   int64
	ErrorsET   int64
	ErrorsUV   int64
	ApplyStmts int64
	Files      int64

	// Stages summarizes the node registry's per-stage latency histograms
	// accumulated over the run — the stage-level attribution behind the
	// phase split. Each run assembles a fresh stack, so the snapshot is the
	// run's own delta.
	Stages []StageSummary

	// ChromeTrace is the run's stitched distributed trace in Chrome
	// trace_event JSON, present when RunConfig.Trace was set.
	ChromeTrace []byte
}

// StageSummary condenses one stage histogram for benchmark reports.
type StageSummary struct {
	Name  string
	Count int64
	Mean  float64 // seconds (or the histogram's native unit)
	P50   float64
	P95   float64
}

// stageSummaries extracts non-empty histograms from a node registry.
func stageSummaries(node *core.Node) []StageSummary {
	var out []StageSummary
	for _, h := range node.Metrics().Histograms() {
		if h.Count == 0 {
			continue
		}
		out = append(out, StageSummary{
			Name:  h.Name,
			Count: h.Count,
			Mean:  h.Mean(),
			P50:   h.Quantile(0.5),
			P95:   h.Quantile(0.95),
		})
	}
	return out
}

// AcquireRateMBs returns the acquisition throughput in MB/s.
func (p PhaseTimes) AcquireRateMBs() float64 {
	if p.Acquisition <= 0 {
		return 0
	}
	return float64(p.Bytes) / p.Acquisition.Seconds() / 1e6
}

// startStack assembles the run's in-process stack: object store, CDW engine
// behind its server, and a virtualizer node.
func startStack(cfg RunConfig) (*etlvirt.Stack, error) {
	return etlvirt.StartStack(etlvirt.StackConfig{
		Node:              cfg.Node,
		CDW:               cfg.CDW,
		UplinkBytesPerSec: cfg.UplinkBytesPerSec,
	})
}

// RunImport generates the workload, assembles an in-process stack, runs the
// job through the virtualizer, and reports phase times from the node's job
// report (server-side perspective, as in the paper).
func RunImport(cfg RunConfig) (PhaseTimes, error) {
	data := cfg.Workload.Generate()

	stack, err := startStack(cfg)
	if err != nil {
		return PhaseTimes{}, err
	}
	defer stack.Close()
	node := stack.Node

	if _, err := stack.ExecCDW(cfg.Workload.TargetDDL("bench.target")); err != nil {
		return PhaseTimes{}, err
	}

	extra := cfg.ScriptExtra
	if cfg.Sessions > 1 {
		extra += fmt.Sprintf(" sessions %d", cfg.Sessions)
	}
	script, err := etlscript.Parse(cfg.Workload.Script("bench.target", extra))
	if err != nil {
		return PhaseTimes{}, err
	}
	opts := etlclient.Options{
		Addr:         stack.NodeAddr,
		ChunkRecords: cfg.ChunkRecords,
		ReadFile:     func(string) ([]byte, error) { return data, nil },
		Trace:        cfg.Trace,
	}
	clientRes, err := etlclient.Run(script, opts)
	if err != nil {
		return PhaseTimes{}, err
	}
	var chromeTrace []byte
	if cfg.Trace && clientRes.TraceID != "" {
		tid, err := obs.ParseTraceID(clientRes.TraceID)
		if err != nil {
			return PhaseTimes{}, err
		}
		snap, ok := node.Tracer().TraceByID(tid)
		if !ok {
			return PhaseTimes{}, fmt.Errorf("bench: traced run left no trace %s on the node", clientRes.TraceID)
		}
		if chromeTrace, err = snap.ChromeTrace(); err != nil {
			return PhaseTimes{}, err
		}
	}

	reports := node.Reports()
	if len(reports) != 1 {
		return PhaseTimes{}, fmt.Errorf("bench: expected one job report, got %d", len(reports))
	}
	r := reports[0]
	return PhaseTimes{
		Acquisition: r.Acquisition,
		Application: r.Application,
		Other:       r.Other,
		Total:       r.Total(),
		Rows:        r.RowsIn,
		Bytes:       r.BytesIn,
		Inserted:    r.Inserted,
		ErrorsET:    r.ErrorsET,
		ErrorsUV:    r.ErrorsUV,
		ApplyStmts:  r.ApplyStmts,
		Files:       r.FilesWritten,
		Stages:      stageSummaries(node),
		ChromeTrace: chromeTrace,
	}, nil
}

// RunBaselineSingleton is the Figure 11 baseline: a client that loads each
// record with its own INSERT statement directly against the CDW, logging
// each erroneous tuple into the error table as it is encountered. No bulk
// staging, no adaptive retries — consistent cost regardless of error rate.
func RunBaselineSingleton(cfg RunConfig) (PhaseTimes, error) {
	data := cfg.Workload.Generate()
	layout := cfg.Workload.Layout()

	stack, err := startStack(cfg)
	if err != nil {
		return PhaseTimes{}, err
	}
	defer stack.Close()
	client, err := cdwnet.Dial(stack.CDWAddr)
	if err != nil {
		return PhaseTimes{}, err
	}
	defer client.Close()

	if _, err := client.Exec(cfg.Workload.TargetDDL("bench.target")); err != nil {
		return PhaseTimes{}, err
	}
	if _, err := client.Exec(
		"CREATE TABLE bench.target_ET (SEQNO BIGINT, ERRCODE INTEGER, ERRMSG VARCHAR(1024))"); err != nil {
		return PhaseTimes{}, err
	}

	start := time.Now()
	lines := ltype.SplitVartextLines(data)
	var inserted, errors int64
	seen := make(map[string]bool, len(lines))
	for i, line := range lines {
		fields := ltype.VartextRecord(line, '|')
		if len(fields) != len(layout.Fields) {
			errors++
			continue
		}
		// uniqueness is checked client-side against the keys already loaded,
		// the way a naive migration harness would
		if seen[fields[0]] {
			errors++
			if err := logError(client, i+1, cdw.CodeUniqueness, "duplicate key"); err != nil {
				return PhaseTimes{}, err
			}
			continue
		}
		sql := singletonInsert("bench.target", fields)
		if _, err := client.Exec(sql); err != nil {
			if _, ok := err.(*cdw.Error); !ok {
				return PhaseTimes{}, err
			}
			errors++
			if err := logError(client, i+1, cdw.AsError(err).Code, cdw.AsError(err).Msg); err != nil {
				return PhaseTimes{}, err
			}
			continue
		}
		seen[fields[0]] = true
		inserted++
	}
	total := time.Since(start)
	return PhaseTimes{
		Acquisition: total, // the baseline has no phase separation
		Total:       total,
		Rows:        int64(len(lines)),
		Bytes:       int64(len(data)),
		Inserted:    inserted,
		ErrorsET:    errors,
		ApplyStmts:  int64(len(lines)),
	}, nil
}

func singletonInsert(table string, fields []string) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " VALUES (")
	for i, f := range fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i == 1 {
			sb.WriteString("to_date(")
			writeStr(&sb, f)
			sb.WriteString(", 'YYYY-MM-DD')")
			continue
		}
		writeStr(&sb, strings.TrimSpace(f))
	}
	sb.WriteString(")")
	return sb.String()
}

func writeStr(sb *strings.Builder, s string) {
	sb.WriteByte('\'')
	sb.WriteString(strings.ReplaceAll(s, "'", "''"))
	sb.WriteByte('\'')
}

func logError(c *cdwnet.Client, seq, code int, msg string) error {
	ins := &sqlparse.InsertStmt{
		Table: sqlparse.TableName{Schema: "bench", Name: "target_ET"},
		Rows: [][]sqlparse.Expr{{
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: int64(seq)},
			&sqlparse.Literal{Kind: sqlparse.LitInt, Int: int64(code)},
			&sqlparse.Literal{Kind: sqlparse.LitString, Str: msg},
		}},
	}
	sql, err := sqlparse.Print(ins, sqlparse.DialectCDW)
	if err != nil {
		return err
	}
	_, err = c.Exec(sql)
	return err
}
