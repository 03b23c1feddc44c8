package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/wire"
)

// smoke shrinks every size so that a 300 ms window completes a few
// operations of each workload, race detector included.
var smoke = sizes{
	Clients:             2,
	BulkCleanRows:       1000,
	BulkDirtyRows:       100,
	BulkDirtyBadDates:   2,
	BulkDirtyDupKeys:    1,
	BulkDirtyVariants:   2,
	ReferenceRows:       40,
	CDCStreams:          2,
	CDCPreloadKeys:      100,
	CDCLatencyMS:        200,
	CDCCredits:          1024,
	CDCLoRate:           200,
	CDCHiRate:           400,
	CDCSatDeltasPerSec:  2000,
	NightlyGroups:       8,
	NightlyRowsPerGroup: 6,
	NightlyVariants:     3,
	Warmup:              50 * time.Millisecond,
	SetupRepeats:        1,
}

func TestGeneratorDeterminism(t *testing.T) {
	bulk := func(seed int64) *bulkInput {
		return genBulk(rand.New(rand.NewSource(seed)), "BENCH.T", 500, 10, 5)
	}
	a, b, c := bulk(7), bulk(7), bulk(8)
	if !bytes.Equal(a.Data, b.Data) || a.Script != b.Script {
		t.Error("bulk generator: same seed gave different inputs")
	}
	if bytes.Equal(a.Data, c.Data) {
		t.Error("bulk generator: different seeds gave identical inputs")
	}
	if a.Inserted != 485 || a.ErrorsET != 10 || a.ErrorsUV != 5 {
		t.Errorf("bulk generator: expectation %d/%d/%d, want 485/10/5", a.Inserted, a.ErrorsET, a.ErrorsUV)
	}

	phases := []cdcPhase{{Dur: time.Second, Rate: 50}, {Dur: time.Second, Rate: 100}, {Dur: time.Second}}
	cdc := func(seed int64) *cdcStreamInput {
		return genCDC(rand.New(rand.NewSource(seed)), "s", "BENCH.S", 100, phases, 200)
	}
	x, y, z := cdc(7), cdc(7), cdc(8)
	if !reflect.DeepEqual(x.Deltas, y.Deltas) {
		t.Error("cdc generator: same seed gave a different delta sequence or schedule")
	}
	if reflect.DeepEqual(x.Deltas, z.Deltas) {
		t.Error("cdc generator: different seeds gave identical deltas")
	}
	if len(x.Deltas) != 50+100+200 {
		t.Errorf("cdc generator: %d deltas, want 350", len(x.Deltas))
	}
	for i := 1; i < len(x.Deltas); i++ {
		if x.Deltas[i].Due < x.Deltas[i-1].Due {
			t.Fatalf("cdc generator: due times go backwards at delta %d", i)
		}
	}

	n1, err := genNightly(smoke, 7, "N0")
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := genNightly(smoke, 7, "N0")
	n3, _ := genNightly(smoke, 8, "N0")
	if n1.Scenario.Script != n2.Scenario.Script || !reflect.DeepEqual(n1.Scenario.Files, n2.Scenario.Files) {
		t.Error("nightly generator: same seed gave different inputs")
	}
	if reflect.DeepEqual(n1.Scenario.Files, n3.Scenario.Files) {
		t.Error("nightly generator: different seeds gave identical inputs")
	}
	if strings.Contains(n1.Scenario.Script, "WL.") {
		t.Error("nightly generator: scenario still names the WL database")
	}
}

func TestPercentileRefusesUnsupportedTail(t *testing.T) {
	sample := make([]float64, 199)
	for i := range sample {
		sample[i] = float64(i)
	}
	if _, err := percentile(sample, 0.95); err == nil {
		t.Error("p95 of 199 samples was reported; it has fewer than ten samples beyond it")
	}
	if _, err := percentile(sample, 0.5); err != nil {
		t.Errorf("median of 199 samples refused: %v", err)
	}
	sample = append(sample, 199)
	p95, err := percentile(sample, 0.95)
	if err != nil || p95 != 189 {
		t.Errorf("p95 of 0..199 = %v, %v; want 189", p95, err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 40, End: 70},  // overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "b", Start: 90, End: 130}, // sticks out of the parent
	}
	self := selfTimes(spans)
	if self["op"] != 30 { // 100 - (10..70) - (90..100)
		t.Errorf("self time of op = %d, want 30", self["op"])
	}
	if self["a"] != 40 || self["b"] != 70 {
		t.Errorf("leaf self times a=%d b=%d, want 40 and 70", self["a"], self["b"])
	}
}

// TestSmokeAllWorkloads runs both passes of every workload on a short window
// and holds the output to BENCHMARK.json: every metric it names is present,
// finite and carries the unit it declares, and nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/e2e"
			want := spec.EndToEnd
			if trace {
				name, want = wl.Name+"/layers", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runOne(context.Background(), runConfig{Workload: wl.Name, Seed: 3,
					Window: 300 * time.Millisecond, Trace: trace, Sizes: smoke, OutDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, got.Value)
					}
				}
				if trace {
					checkSpanFile(t, filepath.Join(dir, wl.Name+".spans.jsonl"))
				}
			})
		}
	}
}

// checkSpanFile holds a span file to the tracing contract: every parent
// exists, no span ends before it starts, self times are non-negative, and a
// tree carries one operation id.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	byID := map[uint64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file line %d: %v", len(spans)+1, err)
		}
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or repeated", s.ID)
		}
		spans = append(spans, s)
		byID[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
			continue
		}
		if p.Op != s.Op {
			t.Errorf("span %d (%s) has op %d, its parent %d has op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
	}
	for name, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("self time of %s is negative: %v", name, d)
		}
	}
	for _, must := range []string{"op", "replay", "convert", "fwriter.write", "cdw.copy", "errhandle.run", "cdwnet.roundtrip", "cdw.server"} {
		if names[must] == 0 {
			t.Errorf("span file holds no %q span", must)
		}
	}
}

func TestSelftestCorruptFails(t *testing.T) {
	for _, wl := range workloadNames {
		res, err := runOne(context.Background(), runConfig{Workload: wl, Seed: 3,
			Window: 200 * time.Millisecond, Corrupt: true, Sizes: smoke})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a flipped expectation went unnoticed (correct=%v failed=%d)", wl, res.Correct, res.Failed)
		}
	}
}

// TestOpenLoopFreshnessCountsFromDueTime stalls a fake server on its first
// frame. Deltas that came due during the stall are sent late; their freshness
// must still count from when they were due, not from when they were sent.
func TestOpenLoopFreshnessCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverDone := make(chan error, 1)
	go func() { serverDone <- fakeStreamServer(ln, stall) }()

	in := genCDC(rand.New(rand.NewSource(1)), "s", "T", 10,
		[]cdcPhase{{Dur: 400 * time.Millisecond, Rate: 100}}, 0)
	run, err := openStream(ln.Addr().String(), in, 200)
	if err != nil {
		t.Fatal(err)
	}
	end := 400 * time.Millisecond
	if err := run.feed(context.Background(), time.Now(), 0, end, 2*end, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := run.end(); err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
	if run.committed != len(in.Deltas) {
		t.Fatalf("%d of %d deltas committed", run.committed, len(in.Deltas))
	}
	// Delta 1 (due 10 ms in) queued behind the stalled first frame: the stall
	// is in its queueing (send − due), and freshness must include it.
	queued := 1
	fromDue := run.commitAt[queued] - in.Deltas[queued].Due
	late := run.sendAt[queued] - in.Deltas[queued].Due
	if late < stall/2 {
		t.Errorf("generator lateness of the queued delta is %v, want about %v", late, stall)
	}
	if fromDue < late {
		t.Errorf("freshness %v of a delta sent %v late: it was counted from send time, not due time", fromDue, late)
	}
}

// fakeStreamServer speaks just enough of the legacy protocol for one stream:
// it commits every frame at once, after stalling on the first.
func fakeStreamServer(ln net.Listener, stall time.Duration) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	c := wire.NewConn(conn)
	defer c.Close()
	first := true
	for {
		m, _, err := c.Recv()
		if err != nil {
			return err
		}
		var reply wire.Message
		switch v := m.(type) {
		case *wire.Logon:
			reply = &wire.LogonOK{}
		case *wire.BeginStream:
			reply = &wire.StreamOK{StreamID: 1, BatchHint: 64}
		case *wire.DeltaFrame:
			if first {
				time.Sleep(stall)
				first = false
			}
			reply = &wire.DeltaAck{StreamID: 1, Seq: v.FirstSeq, CommittedSeq: v.FirstSeq + uint64(v.Count) - 1, BatchHint: 64}
		case *wire.EndStream:
			reply = &wire.StreamDone{StreamID: 1}
		case *wire.Logoff:
			return nil
		}
		if err := c.Send(0, reply); err != nil {
			return err
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"rows_per_s","unit":"rows/s","better":"higher","bound":0.05},
		{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.07},
		{"name":"op_p95_ms","unit":"ms","better":"lower","bound":0.10}]}`
	doc := func(failed int64, rows, p50 float64, p95 ...float64) string {
		d := allDoc{}
		for _, v := range p95 {
			d.Runs = append(d.Runs, allRun{Workloads: map[string]*runResult{"w": {Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"rows_per_s": {Value: rows}, "op_p50_ms": {Value: p50}, "op_p95_ms": {Value: v}}}}})
		}
		b, _ := json.Marshal(d)
		return string(b)
	}
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := write("spec.json", spec)
	base := write("a.json", doc(0, 1000, 10, 20, 21, 20, 21))

	var out bytes.Buffer
	// rows/s down 10 % (regressed), p50 up 5 % (within 7 %), p95 spread wide (unresolved)
	code, err := compareDocs(&out, specPath, base, write("b.json", doc(0, 900, 10.5, 15, 25, 16, 26)))
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("a 10%% throughput drop under a 5%% bound exited %d", code)
	}
	for _, want := range []string{"regressed", "unresolved", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks a %q row:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code, _ := compareDocs(&out, specPath, base, base); code != 0 {
		t.Errorf("comparing a document with itself exited %d:\n%s", code, out.String())
	}
	if code, _ := compareDocs(&out, specPath, base, write("c.json", doc(1, 1000, 10, 20, 21, 20, 21))); code != 1 {
		t.Error("a rise in failed share did not fail the comparison")
	}
}
