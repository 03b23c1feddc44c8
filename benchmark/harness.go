package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/wire"
)

// runConfig is one benchmark run: one workload, one seed, one measured window.
type runConfig struct {
	Workload string
	Seed     int64
	Window   time.Duration
	// Trace selects the per-layer run: a shorter untraced reference window,
	// a traced window with the live seams armed, then the layer replay.
	Trace   bool
	Corrupt bool // self-test: flip one expected count; the run must fail
	Sizes   sizes
	// Strict refuses to report a percentile the sample cannot support. Only
	// the smoke test, whose windows are too short for a p95, turns it off.
	Strict bool
	OutDir string // span files; "" writes none
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or median; 0 for plain
	// counts and ratios.
	N int `json:"n,omitempty"`
}

// runResult is everything one run reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	Env       envInfo           `json:"env"`
}

// envInfo records where and at what sizes the numbers were taken.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WindowS    float64 `json:"window_s"`
	Sizes      sizes   `json:"sizes"`
}

// Phases of a per-layer run, as shares of the run's window.
const (
	traceRefShare    = 0.35 // untraced reference window
	traceWindowShare = 0.45 // traced window; the replay takes what is left
)

// runOne executes one run end to end.
func runOne(ctx context.Context, cfg runConfig) (*runResult, error) {
	out := &runResult{Workload: cfg.Workload, Seed: cfg.Seed, Metrics: map[string]metric{},
		Env: envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			WindowS: cfg.Window.Seconds(), Sizes: cfg.Sizes}}

	// Set-up, repeated: its median is a metric of its own, so that work a
	// later change moves out of the timed window and into set-up shows.
	var w workload
	var setups []float64
	for i := 0; i < cfg.Sizes.SetupRepeats; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(cfg.Workload, cfg.Sizes); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(cfg.Seed, cfg.Corrupt); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	// The warm-up is untimed, but a wrong output there is still a wrong output.
	warm, err := w.window(ctx, cfg.Sizes.Warmup, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	out.tally(warm)

	if !cfg.Trace {
		res, err := w.window(ctx, cfg.Window, nil)
		if err != nil {
			return nil, err
		}
		out.tally(res)
		if err := out.endToEnd(res, setups, cfg.Strict); err != nil {
			return nil, err
		}
		return out, nil
	}

	ref, err := w.window(ctx, time.Duration(float64(cfg.Window)*traceRefShare), nil)
	if err != nil {
		return nil, err
	}
	out.tally(ref)
	rec := newRecorder()
	st := w.stack()
	traced, err := w.window(ctx, time.Duration(float64(cfg.Window)*traceWindowShare), rec)
	if err != nil {
		return nil, err
	}
	out.tally(traced)
	attributeSpans(rec, traced, st, w.clientOf)
	replay, err := replayLayers(ctx, w.replayInput(), rec)
	if err != nil {
		return nil, err
	}
	logonMS, err := measureLogon(st.nodeAddr)
	if err != nil {
		return nil, err
	}
	out.perLayer(ref, traced, replay, st, logonMS)
	if cfg.OutDir != "" {
		if err := writeSpans(filepath.Join(cfg.OutDir, cfg.Workload+".spans.jsonl"), rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (o *runResult) tally(res *windowResult) {
	o.Attempted += res.Attempted
	o.Failed += res.Failed
	o.Failures = append(o.Failures, res.Failures...)
	o.Correct = o.Failed == 0 && o.Attempted > 0
}

// throughput is the workload's rows/s: for closed loops rows completed over
// the window's wall time; for cdc_stream deltas committed during the
// closed-loop phase over that phase's length.
func throughput(res *windowResult) float64 {
	if res.SatDur > 0 {
		return ratio(float64(res.SatRows), res.SatDur.Seconds())
	}
	return ratio(float64(res.Rows), res.Wall.Seconds())
}

func (o *runResult) endToEnd(res *windowResult, setups []float64, strict bool) error {
	p50, err := percentile(res.LatencyMS, 0.5)
	if err != nil {
		return fmt.Errorf("op_p50_ms: %w (%d ops attempted, %d failed)", err, res.Attempted, res.Failed)
	}
	p95, err := percentile(res.LatencyMS, 0.95)
	if err != nil {
		if strict {
			return fmt.Errorf("op_p95_ms: %w; lengthen -seconds", err)
		}
		p95 = 0 // too few samples for a percentile: stand in the maximum
		for _, v := range res.LatencyMS {
			p95 = math.Max(p95, v)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	n := len(res.LatencyMS)
	o.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
	o.Metrics["rows_per_s"] = metric{Value: throughput(res), Unit: "rows/s"}
	o.Metrics["op_p50_ms"] = metric{Value: p50, Unit: "ms", N: n}
	o.Metrics["op_p95_ms"] = metric{Value: p95, Unit: "ms", N: n}
	o.Metrics["cpu_us_per_row"] = metric{Value: ratio(float64(res.CPU.Nanoseconds())/1e3, float64(res.Rows)), Unit: "us/row"}
	o.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	return nil
}

// layerUnits names every per-layer metric and its unit; BENCHMARK.json lists
// the same names. A metric no source produced in a run (an open-loop number on
// a closed-loop workload, job-report medians on a workload whose jobs file no
// report) is reported as 0.
var layerUnits = map[string]string{
	"wire.encode_ns_per_frame": "ns", "wire.decode_ns_per_frame": "ns", "wire.bytes_per_row": "B/row",
	"ltype.parse_ns_per_row": "ns", "ltype.encode_ns_per_row": "ns",
	"convert.ns_per_row": "ns", "convert.allocs_per_chunk": "count", "convert.rows": "count", "convert.data_errors": "count",
	"fwriter.ns_per_mb": "ns", "fwriter.files_per_job": "count", "fwriter.out_bytes_per_in_byte": "ratio",
	"cloudstore.puts": "count", "cloudstore.put_bytes": "B", "cloudstore.put_busy_s": "s",
	"cloudstore.gets": "count", "cloudstore.get_busy_s": "s", "cloudstore.failed": "count",
	"credit.acquire_ns": "ns", "credit.wait_share": "ratio", "credit.peak_inflight_mb": "MB",
	"core.acq_ms_p50": "ms", "core.apply_ms_p50": "ms", "core.other_ms_p50": "ms",
	"core.copy_batches_per_job": "count", "core.chunks_per_job": "count",
	"cdwnet.requests_per_op": "count", "cdwnet.rtt_overhead_us": "us", "cdwnet.failed": "count",
	"cdw.busy_s": "s", "cdw.stmts_per_op": "count", "cdw.failed_stmts": "count",
	"cdw.copy_ns_per_row": "ns", "cdw.apply_ns_per_row": "ns", "cdw.range_dml_ns_per_row": "ns",
	"cdw.stream_dml_ns_per_delta": "ns", "cdw.scan_ns_per_row": "ns",
	"sqlxlate.translate_us_per_stmt": "us", "sqlxlate.stream_translate_us": "us",
	"errhandle.attempts_per_job": "count", "errhandle.splits_per_job": "count",
	"errhandle.stmts_per_error": "count", "errhandle.useful_share": "ratio",
	"tdf.encode_ns_per_row": "ns", "tdf.decode_ns_per_row": "ns",
	"stream.next_delta_ns": "ns", "stream.controller_observe_ns": "ns", "stream.commits": "count",
	"stream.batch_rows_mean": "count", "stream.final_hint": "count", "stream.replayed": "count",
	"etlclient.logon_ms_p50": "ms", "etlclient.acq_share": "ratio",
	"gen.ops": "count", "gen.offered_rows_per_s": "rows/s", "gen.late_p95_ms": "ms",
	"gen.backlog_mid": "count", "gen.backlog_end": "count", "gen.fresh_lo_p50_ms": "ms", "gen.fresh_lo_p95_ms": "ms",
	"gen.replay_chain_rows_per_s": "rows/s", "gen.replay_cover_share": "ratio", "gen.trace_overhead_share": "ratio",
}

// perLayer assembles every per-layer metric: what the live seams saw during
// the traced window, what the load generator and the stream acks reported
// (traced.Gen), and what the layer replay measured, in that order of
// precedence.
func (o *runResult) perLayer(ref, traced *windowResult, replay map[string]float64, st *stack, logonMS []float64) {
	ops := float64(len(traced.Ops))
	seam := st.seam
	st.live.mu.Lock()
	reports := st.live.reports
	cdwReqs, cdwBusy, cdwFails, cdwInfra := st.live.cdwReqs, st.live.cdwBusy, st.live.cdwFails, st.live.cdwInfra
	st.live.mu.Unlock()
	var acq, app, other, batches, chunks, attempts, splits []float64
	for _, r := range reports {
		acq = append(acq, ms(r.Acquisition))
		app = append(app, ms(r.Application))
		other = append(other, ms(r.Other))
		if r.Export {
			continue
		}
		batches = append(batches, float64(r.CopyBatches))
		chunks = append(chunks, float64(r.Chunks))
		attempts = append(attempts, float64(r.ApplyStmts))
		splits = append(splits, float64(r.Splits))
	}
	var opTime time.Duration
	for _, op := range traced.Ops {
		opTime += op.End.Sub(op.Start)
	}
	p50, _ := percentile(traced.LatencyMS, 0.5)

	live := map[string]float64{
		"cloudstore.puts":         float64(seam.puts.Load()),
		"cloudstore.put_bytes":    float64(seam.putBytes.Load()),
		"cloudstore.put_busy_s":   float64(seam.putBusy.Load()) / 1e9,
		"cloudstore.gets":         float64(seam.gets.Load()),
		"cloudstore.get_busy_s":   float64(seam.getBusy.Load()) / 1e9,
		"cloudstore.failed":       float64(seam.failed.Load()),
		"credit.wait_share":       ratio(float64(traced.CreditWaits), float64(traced.CreditAcquires)),
		"credit.peak_inflight_mb": float64(st.node.Credits().PeakInFlight) / 1e6,
		"core.acq_ms_p50":         median(acq),
		"core.apply_ms_p50":       median(app),
		"core.other_ms_p50":       median(other),
		"cdwnet.requests_per_op":  ratio(float64(cdwReqs), ops),
		"cdwnet.failed":           float64(cdwInfra),
		"cdw.busy_s":              cdwBusy.Seconds(),
		"cdw.stmts_per_op":        ratio(float64(traced.Stmts), ops),
		"cdw.failed_stmts":        float64(cdwFails),
		"etlclient.logon_ms_p50":  median(logonMS),
		"etlclient.acq_share":     ratio(float64(traced.ClientAcq), float64(opTime)),
		"gen.ops":                 ops,
		"gen.replay_cover_share":  ratio(replay["replay.chain_ms"], p50),
		// closed loop: what is offered is whatever completed
		"gen.offered_rows_per_s":   throughput(traced),
		"gen.trace_overhead_share": 1 - ratio(throughput(traced), throughput(ref)),
	}
	if len(batches) > 0 {
		// Import jobs finished in the traced window; otherwise (cdc_stream)
		// the replay's own application phase stands in.
		live["core.copy_batches_per_job"] = mean(batches)
		live["core.chunks_per_job"] = mean(chunks)
		live["errhandle.attempts_per_job"] = mean(attempts)
		live["errhandle.splits_per_job"] = mean(splits)
	}
	samples := map[string]int{"core.acq_ms_p50": len(acq), "core.apply_ms_p50": len(app),
		"core.other_ms_p50": len(other), "etlclient.logon_ms_p50": len(logonMS)}

	for name, unit := range layerUnits {
		var v float64
		for _, src := range []map[string]float64{traced.Gen, live, replay} {
			if x, ok := src[name]; ok {
				v = x
				break
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		o.Metrics[name] = metric{Value: v, Unit: unit, N: samples[name]}
	}
}

// measureLogon times dial + logon + logoff on a fresh connection, directly.
func measureLogon(addr string) ([]float64, error) {
	const n = 50
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		c, err := logon(addr)
		if err != nil {
			return nil, fmt.Errorf("logon probe: %w", err)
		}
		if err := c.Send(0, &wire.Logoff{}); err != nil {
			c.Close()
			return nil, fmt.Errorf("logon probe: %w", err)
		}
		c.Close()
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// attributeSpans turns the traced window's live-seam observations into child
// spans of the operations that caused them. A job report names its target
// table, which names the client; the client's operation in flight when the
// report was filed is its parent. A store call's key names its job or stream.
// What cannot be tied to an operation hangs off a synthetic root of its own,
// so every span still has a parent and every tree one operation id.
func attributeSpans(rec *recorder, res *windowResult, st *stack, clientOf func(string) int) {
	byClient := map[int][]opRecord{}
	for _, op := range res.Ops {
		byClient[op.Client] = append(byClient[op.Client], op)
	}
	for _, ops := range byClient {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Start.Before(ops[j].Start) })
	}
	opAt := func(client int, t time.Time) (opRecord, bool) {
		ops := byClient[client]
		i := sort.Search(len(ops), func(i int) bool { return ops[i].End.After(t) || ops[i].End.Equal(t) })
		if i < len(ops) && !ops[i].Start.After(t) {
			return ops[i], true
		}
		return opRecord{}, false
	}
	var orphanRoot uint64
	orphan := func() (parent, op uint64) {
		if orphanRoot == 0 {
			orphanRoot = rec.add(0, 0, 0, "unattributed", res.Start, res.Start.Add(res.Wall))
		}
		return orphanRoot, 0
	}

	type owner struct{ span, op uint64 }
	jobs := map[string]owner{}
	st.live.mu.Lock()
	reports := st.live.reports
	st.live.mu.Unlock()
	for _, r := range reports {
		parent, opID := orphan()
		if c := clientOf(r.Target); c >= 0 {
			if op, ok := opAt(c, r.Done); ok {
				parent, opID = op.ID, op.ID
			}
		}
		// The report carries durations, not timestamps: lay the phases end
		// to end inside the job, start-up and teardown ("other") split
		// around them.
		start := r.Done.Add(-r.Total())
		job := rec.add(0, parent, opID, "core.job", start, r.Done)
		acqStart := start.Add(r.Other / 2)
		rec.add(0, job, opID, "core.acquisition", acqStart, acqStart.Add(r.Acquisition))
		rec.add(0, job, opID, "core.application", acqStart.Add(r.Acquisition), acqStart.Add(r.Acquisition+r.Application))
		jobs[strconv.FormatUint(r.JobID, 10)] = owner{span: job, op: opID}
	}

	st.seam.mu.Lock()
	calls := st.seam.calls
	st.seam.mu.Unlock()
	for _, c := range calls {
		parent, opID := orphan()
		// keys are <prefix>/<job id>/... for imports, <prefix>/stream<id>/...
		// for streams
		if parts := strings.Split(c.Key, "/"); len(parts) >= 2 {
			if o, ok := jobs[parts[1]]; ok {
				parent, opID = o.span, o.op
			} else if id, ok := strings.CutPrefix(parts[1], "stream"); ok {
				if sid, err := strconv.ParseUint(id, 10, 64); err == nil {
					if client, ok := res.StreamClient[sid]; ok {
						if op, ok := opAt(client, c.Start); ok {
							parent, opID = op.ID, op.ID
						}
					}
				}
			}
		}
		rec.add(0, parent, opID, c.Name, c.Start, c.End)
	}
}

// infraCode reports whether an engine error code is an infrastructure
// failure rather than a data error adaptive splitting is expected to see.
func infraCode(code int) bool {
	return code == cdw.CodeInternal || code == cdw.CodeCopyFailed
}
