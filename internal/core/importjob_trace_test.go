package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/faultinject"
)

// TestImportSetupFailureSettlesTrace pins the newImportJob error paths found
// by the spanbalance analyzer: when preparing the job tables fails, the
// already-opened job trace must be finished, not leaked in the tracer's live
// set. A leaked live trace here made the SLO report under-count failed
// setups for the life of the node.
func TestImportSetupFailureSettlesTrace(t *testing.T) {
	inj := faultinject.New(1)
	// The import's first CDW statement is the staging-table DDL; failing it
	// fatally (not retryable) drives newImportJob down its Write error
	// return.
	inj.SetRule("cdw.query", faultinject.Rule{Nth: []int64{1}, Class: faultinject.ClassFatal})
	st := startStack(t, core.Config{
		FaultInjector:  inj,
		RetryBaseDelay: time.Millisecond,
	})
	mustEng(t, st.eng, customerDDL)

	script := parseScript(t, example21Script(""))
	opts := etlclient.Options{
		Addr:         st.addr,
		ReadFile:     func(string) ([]byte, error) { return []byte(figure5Data), nil },
		ChunkRecords: 2,
	}
	if _, err := etlclient.Run(script, opts); err == nil {
		t.Fatal("import succeeded despite a fatal DDL fault; the fault schedule is dead")
	}

	tr := st.node.Tracer()
	if got := tr.Started(); got != 1 {
		t.Fatalf("traces started = %d, want 1 (the failed import's)", got)
	}
	if live := tr.Live(); len(live) != 0 {
		var labels []string
		for _, jt := range live {
			labels = append(labels, jt.Label)
		}
		t.Errorf("failed import leaked %d live trace(s): %s", len(live), strings.Join(labels, ", "))
	}
}

// spanTotals sums rows and bytes over a finished job's spans of one stage.
func spanTotals(t *testing.T, node *core.Node, jobID uint64, stage string) (n int, rows, bytes int64) {
	t.Helper()
	jt, ok := node.Tracer().Get(jobID)
	if !ok {
		t.Fatalf("no retained trace for job %d", jobID)
	}
	for _, sp := range jt.Snapshot().Spans {
		if sp.Stage == stage {
			n++
			rows += sp.Rows
			bytes += sp.Bytes
		}
	}
	return n, rows, bytes
}

// TestCopySpansCarryTheirOwnManifest pins per-COPY attribution on
// /jobs/{id}/trace: each copy span carries the bytes of the objects in its
// own manifest, so over a multi-batch import the copy spans sum to exactly
// what was uploaded (stamping each with the job's running upload total
// over-reported N-fold). A stream's micro-batches go through the same lane,
// so its upload spans carry rows and its copy spans bytes too.
func TestCopySpansCarryTheirOwnManifest(t *testing.T) {
	st := startStack(t, core.Config{
		FileSizeThreshold: 256, // many small spool files
		FileWriters:       1,
		UploadParallelism: 1,
		CopyBatchFiles:    2,
	})
	mustEng(t, st.eng, customerDDL)
	mustEng(t, st.eng, accountDDL)

	const rows = 120
	var input strings.Builder
	for i := 1; i <= rows; i++ {
		fmt.Fprintf(&input, "%d|Name %d|2021-%02d-%02d\n", i, i, 1+i%12, 1+i%28)
	}
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": input.String()},
		etlclient.Options{ChunkRecords: 10})
	rep := st.node.Reports()[0]
	copies, copyRows, copyBytes := spanTotals(t, st.node, rep.JobID, "copy")
	if copies < 2 || int64(copies) != rep.CopyBatches {
		t.Fatalf("copy spans = %d, report says %d batches; want both >= 2", copies, rep.CopyBatches)
	}
	if copyBytes != rep.BytesUpload {
		t.Errorf("copy spans carry %d bytes in total, job uploaded %d", copyBytes, rep.BytesUpload)
	}
	if copyRows != rows {
		t.Errorf("copy spans carry %d rows in total, want %d", copyRows, rows)
	}

	const deltas = 60
	runScript(t, st.addr, cdcScript, map[string]string{"deltas.txt": cdcDeltas(deltas)}, etlclient.Options{})
	streamID := rep.JobID + 1
	uploads, upRows, upBytes := spanTotals(t, st.node, streamID, "upload")
	_, copyRows, copyBytes = spanTotals(t, st.node, streamID, "copy")
	if uploads == 0 || upRows != deltas || copyRows != deltas {
		t.Errorf("stream spans: %d uploads carrying %d rows, copies carrying %d rows; want %d each",
			uploads, upRows, copyRows, deltas)
	}
	if upBytes == 0 || copyBytes != upBytes {
		t.Errorf("stream copy spans carry %d bytes, its uploads %d", copyBytes, upBytes)
	}
}
