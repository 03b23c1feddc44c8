package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/faultinject"
	"etlvirt/internal/ltype"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
)

// renderLane builds the minimal lane shape copySQL reads: the staging table
// name and the object-store prefix. No node, no network.
func renderLane() *stagingLane {
	return &stagingLane{
		stage:  sqlparse.TableName{Schema: "etlvirt_stage", Name: "job42"},
		prefix: "job42/",
	}
}

// TestCopyManifestSQLAllocBound bounds the allocations of building one
// manifest COPY statement — the per-batch cost the scheduler pays on every
// issue while acquisition is running, and a stream on every commit.
func TestCopyManifestSQLAllocBound(t *testing.T) {
	l := renderLane()
	files := manifestFiles(16)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.copySQL(files); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 64
	if allocs > bound {
		t.Errorf("copySQL(16 files) allocates %.1f times, want <= %d", allocs, bound)
	}
}

// TestCopySQLManifestShape pins the one statement shape core issues: explicit
// FILES manifest, ordered format options, and no statement-level gzip (the
// engine sniffs per-file .gz suffixes on manifest COPYs).
func TestCopySQLManifestShape(t *testing.T) {
	sql, err := renderLane().copySQL([]string{"a.csv.gz", "b.csv.gz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FILES", "'a.csv.gz'", "'b.csv.gz'", "store://job42/"} {
		if !strings.Contains(sql, want) {
			t.Errorf("manifest COPY %q missing %q", sql, want)
		}
	}
	if strings.Contains(strings.ToLower(sql), "gzip") {
		t.Errorf("manifest COPY %q should rely on per-file suffixes, not a gzip option", sql)
	}
}

// BenchmarkCopyManifestSQL measures building the incremental COPY statement
// for one 16-file batch.
func BenchmarkCopyManifestSQL(b *testing.B) {
	l := renderLane()
	files := manifestFiles(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.copySQL(files); err != nil {
			b.Fatal(err)
		}
	}
}

// laneHost is a lane wired to a real CDW engine whose object-store reads go
// through a fault injector — the COPY read path the lane recovers from.
type laneHost struct {
	lane *stagingLane
	node *Node
	mem  *cloudstore.MemStore
	eng  *cdw.Engine
	inj  *faultinject.Injector
}

func startLaneHost(t *testing.T) *laneHost {
	t.Helper()
	mem := cloudstore.NewMemStore()
	inj := faultinject.New(1)
	eng := cdw.NewEngine(faultinject.NewStore(inj, mem), cdw.Options{})
	srv := cdwnet.NewServer(eng)
	cdwAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	node := NewNode(Config{CDWAddr: cdwAddr, RetryBaseDelay: time.Millisecond}, mem)
	t.Cleanup(func() { node.Close() })
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{{Name: "K", Type: ltype.VarChar(8)}}}
	stage := sqlparse.TableName{Schema: "etl_stage", Name: "lane_t"}
	ddl, err := sqlxlate.StagingDDL(stage, layout)
	if err != nil {
		t.Fatal(err)
	}
	lane := newStagingLane(node.ctx, node, stage, ddl, "lane_t/", "copy", "stage")
	if err := lane.reset(); err != nil {
		t.Fatal(err)
	}
	return &laneHost{lane: lane, node: node, mem: mem, eng: eng, inj: inj}
}

// put uploads one object of n staged rows starting at sequence first.
func (h *laneHost) put(t *testing.T, name string, first, n int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,k%d\n", first+i, first+i)
	}
	if _, err := h.lane.upload("test", name, []byte(sb.String()), int64(n)); err != nil {
		t.Fatal(err)
	}
}

// failNextGet faults the engine's next object-store read (SetRule restarts
// the op's call count).
func (h *laneHost) failNextGet() {
	h.inj.SetRule(faultinject.OpStoreGet, faultinject.Rule{Nth: []int64{1}})
}

func (h *laneHost) stagedSeqs(t *testing.T) string {
	t.Helper()
	res, err := h.eng.ExecSQL("SELECT __seq FROM etl_stage.lane_t")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	for _, r := range res.Rows {
		seqs = append(seqs, r[0].Render())
	}
	return strings.Join(seqs, ",")
}

// TestLaneRecoveryReplaysLandedLogOnce faults the COPY of the second
// manifest: recovery must recreate the table, replay the first manifest
// exactly once, then land the second — and a later clean batch replays
// nothing.
func TestLaneRecoveryReplaysLandedLogOnce(t *testing.T) {
	h := startLaneHost(t)
	h.put(t, "a", 1, 2)
	h.put(t, "b", 3, 3)
	h.put(t, "c", 6, 1)
	if n, err := h.lane.land([]string{"a"}); err != nil || n != 2 {
		t.Fatalf("land a: %d, %v", n, err)
	}
	h.failNextGet()
	if n, err := h.lane.land([]string{"b"}); err != nil || n != 3 {
		t.Fatalf("land b through recovery: %d, %v", n, err)
	}
	if n, err := h.lane.land([]string{"c"}); err != nil || n != 1 {
		t.Fatalf("land c: %d, %v", n, err)
	}
	nm := h.node.nm
	if got := nm.copyRecoveries.Value(); got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	if got := nm.copyReplays.Value(); got != 1 {
		t.Errorf("landed-batch replays = %d, want exactly 1", got)
	}
	if got := h.stagedSeqs(t); got != "1,2,3,4,5,6" {
		t.Errorf("staged sequences %q, want 1..6 once each", got)
	}
}

// TestLaneRecoveryRefusesRowCountMismatch changes a landed object behind the
// lane's back: the replay then stages a different row count than the log
// recorded, and recovery must fail rather than rebuild a different table.
func TestLaneRecoveryRefusesRowCountMismatch(t *testing.T) {
	h := startLaneHost(t)
	h.put(t, "a", 1, 2)
	h.put(t, "b", 3, 1)
	if _, err := h.lane.land([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := h.mem.Put("lane_t/a", strings.NewReader("1,k1\n")); err != nil {
		t.Fatal(err)
	}
	h.failNextGet()
	_, err := h.lane.land([]string{"b"})
	if err == nil || !strings.Contains(err.Error(), "replaying COPY batch landed 1 rows, originally 2") {
		t.Fatalf("land after tampering: %v, want the replay row-count refusal", err)
	}
}

// TestLaneResetForgetsLandedLog is the stream contract: after reset, a
// recovery in batch N+1 must not replay batch N's manifests.
func TestLaneResetForgetsLandedLog(t *testing.T) {
	h := startLaneHost(t)
	h.put(t, "a", 1, 2)
	if _, err := h.lane.land([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := h.lane.reset(); err != nil {
		t.Fatal(err)
	}
	h.put(t, "b", 3, 2)
	h.failNextGet()
	if n, err := h.lane.land([]string{"b"}); err != nil || n != 2 {
		t.Fatalf("land b through recovery: %d, %v", n, err)
	}
	if got := h.node.nm.copyRecoveries.Value(); got != 1 {
		t.Errorf("recoveries = %d, want 1 (the fault schedule is dead otherwise)", got)
	}
	if got := h.node.nm.copyReplays.Value(); got != 0 {
		t.Errorf("replays after reset = %d, want 0", got)
	}
	if got := h.stagedSeqs(t); got != "3,4" {
		t.Errorf("staged sequences %q, want only batch b's 3,4", got)
	}
	h.lane.close()
	if keys, _ := h.mem.List("lane_t/"); len(keys) != 0 {
		t.Errorf("close left objects behind: %v", keys)
	}
	if _, err := h.eng.ExecSQL("SELECT count(*) FROM etl_stage.lane_t"); err == nil {
		t.Error("close left the staging table behind")
	}
}
