package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"

	"etlvirt/internal/convert"
)

func TestWorkloadGenerate(t *testing.T) {
	w := Workload{Rows: 100, RowBytes: 500, Seed: 1}
	data := w.Generate()
	lines := ltype.SplitVartextLines(data)
	if len(lines) != 100 {
		t.Fatalf("rows = %d", len(lines))
	}
	avg := AvgRowBytes(data, 100)
	if avg < 350 || avg > 650 {
		t.Errorf("avg row bytes = %d, want ~500", avg)
	}
	layout := w.Layout()
	for i, line := range lines {
		if _, err := ltype.ParseVartextRecord(line, '|', layout); err != nil {
			t.Fatalf("row %d does not match layout: %v", i, err)
		}
	}
}

func TestWorkloadErrorInjection(t *testing.T) {
	w := Workload{Rows: 1000, RowBytes: 250, ErrRate: 0.1, Seed: 2}
	lines := ltype.SplitVartextLines(w.Generate())
	bad := 0
	for _, l := range lines {
		if strings.Contains(l, "9999-99-99") {
			bad++
		}
	}
	if bad < 60 || bad > 140 {
		t.Errorf("injected errors = %d, want ~100", bad)
	}
}

func TestWorkloadDupInjection(t *testing.T) {
	w := Workload{Rows: 1000, RowBytes: 250, DupRate: 0.1, Seed: 3}
	lines := ltype.SplitVartextLines(w.Generate())
	seen := map[string]bool{}
	dups := 0
	for _, l := range lines {
		key := strings.SplitN(l, "|", 2)[0]
		if seen[key] {
			dups++
		}
		seen[key] = true
	}
	if dups < 60 || dups > 140 {
		t.Errorf("duplicates = %d, want ~100", dups)
	}
}

func TestWorkloadScriptParsesAndConverts(t *testing.T) {
	w := Workload{Rows: 10, RowBytes: 500, Cols: 48, Seed: 4}
	layout := w.Layout()
	if len(layout.Fields) != 50 {
		t.Errorf("50-col workload has %d fields", len(layout.Fields))
	}
	conv, err := convert.NewConverter(layout, wire.FormatVartext, '|', convert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(w.Generate(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 10 || len(res.Errors) != 0 {
		t.Errorf("convert: rows=%d errs=%v", res.Rows, res.Errors)
	}
	if !strings.Contains(w.TargetDDL("t"), "PRIMARY KEY (K)") {
		t.Error("target DDL missing PK")
	}
}

func TestRunImportSmall(t *testing.T) {
	p, err := RunImport(RunConfig{
		Workload:     Workload{Rows: 300, RowBytes: 300, Seed: 5},
		Sessions:     2,
		ChunkRecords: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Inserted != 300 || p.ErrorsET != 0 || p.ErrorsUV != 0 {
		t.Errorf("times: %+v", p)
	}
	if p.Acquisition <= 0 || p.Total <= 0 {
		t.Errorf("phase durations missing: %+v", p)
	}
	if p.ApplyStmts != 1 {
		t.Errorf("clean load should need one DML statement, got %d", p.ApplyStmts)
	}
}

func TestRunImportWithErrors(t *testing.T) {
	p, err := RunImport(RunConfig{
		Workload:     Workload{Rows: 200, RowBytes: 250, ErrRate: 0.05, Seed: 6},
		ChunkRecords: 50,
		ScriptExtra:  " maxerrors 1000",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.ErrorsET == 0 {
		t.Error("no errors recorded despite injection")
	}
	if p.Inserted+p.ErrorsET != 200 {
		t.Errorf("rows unaccounted: inserted=%d errors=%d", p.Inserted, p.ErrorsET)
	}
	if p.ApplyStmts <= p.ErrorsET {
		t.Errorf("adaptive splitting should cost extra statements: %d stmts for %d errors",
			p.ApplyStmts, p.ErrorsET)
	}
}

func TestRunBaselineSingleton(t *testing.T) {
	p, err := RunBaselineSingleton(RunConfig{
		Workload: Workload{Rows: 100, RowBytes: 250, ErrRate: 0.05, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Inserted+p.ErrorsET != 100 {
		t.Errorf("rows unaccounted: %+v", p)
	}
	if p.ApplyStmts != 100 {
		t.Errorf("baseline should issue one statement per row, got %d", p.ApplyStmts)
	}
}

// TestFig11Shape asserts the paper's headline comparison on a small scale:
// the virtualizer beats the singleton baseline with no errors and still
// beats it at 10% errors, while its cost grows with the error rate.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs full figure sweep")
	}
	rows, err := Fig11(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("points: %d", len(rows))
	}
	if rows[0].Adaptive >= rows[0].Baseline {
		t.Errorf("0%% errors: adaptive %v should beat baseline %v", rows[0].Adaptive, rows[0].Baseline)
	}
	last := rows[len(rows)-1]
	if last.Adaptive >= last.Baseline {
		t.Errorf("10%% errors: adaptive %v should still beat baseline %v", last.Adaptive, last.Baseline)
	}
	if last.AdaptStmts <= rows[0].AdaptStmts {
		t.Errorf("adaptive statement count should grow with errors: %d -> %d",
			rows[0].AdaptStmts, last.AdaptStmts)
	}
}

// TestFig7Shape asserts that acquisition dominates application at every
// size and that total time grows with size. Each phase at each size is the
// median of fig7Runs runs of Fig7(400): one sample of 12-17 ms can be
// stretched by another test binary sharing the CPUs, but the median of seven
// moves only when four of them are.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs full figure sweep")
	}
	const fig7Runs = 7
	var rows []Fig7Row
	var acq, app, total [][]time.Duration
	for i := 0; i < fig7Runs; i++ {
		var err error
		if rows, err = Fig7(400); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			acq, app, total = make([][]time.Duration, len(rows)), make([][]time.Duration, len(rows)), make([][]time.Duration, len(rows))
		}
		for s, r := range rows {
			acq[s] = append(acq[s], r.Times.Acquisition)
			app[s] = append(app[s], r.Times.Application)
			total[s] = append(total[s], r.Times.Total)
		}
	}
	for s, r := range rows {
		a, p := medianDur(acq[s]), medianDur(app[s])
		t.Logf("%dM: median acquisition %v, application %v (ratio %.2f)", r.PaperMRows, a, p, float64(a)/float64(p))
		if a < p {
			t.Errorf("%dM: median acquisition %v should dominate median application %v",
				r.PaperMRows, a, p)
		}
	}
	if first, last := medianDur(total[0]), medianDur(total[len(rows)-1]); last <= first {
		t.Errorf("median total time should grow with size: %v -> %v", first, last)
	}
	out := FormatFig7(rows)
	if !strings.Contains(out, "Figure 7") {
		t.Errorf("format: %s", out)
	}
}

// medianDur returns the median of an odd-length sample.
func medianDur(d []time.Duration) time.Duration {
	d = slices.Clone(d)
	slices.Sort(d)
	return d[len(d)/2]
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full ablation sweeps")
	}
	rows, err := AblationCompression(150)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && rows[1].Acquisition >= rows[0].Acquisition {
		// Skipped under the race detector: its instrumentation inflates the
		// CPU cost of gzip far past the simulated uplink savings.
		t.Errorf("gzip should win on a slow uplink: %v vs %v", rows[1].Acquisition, rows[0].Acquisition)
	}
	if _, err := AblationFileSize(150); err != nil {
		t.Fatal(err)
	}
	out := FormatAblations("x", rows)
	if !strings.Contains(out, "Ablation") {
		t.Errorf("format: %s", out)
	}
}
