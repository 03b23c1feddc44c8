package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"etlvirt/internal/edw"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/scrub"
)

// workload is one named traffic mix. The harness calls setup (several times,
// closing in between), then window for the warm-up and each measured window.
type workload interface {
	// setup generates inputs from seed, assembles the stack, preloads it and
	// proves the inputs against the reference engine. corrupt flips one
	// expected count so that the output check must fail (self-test).
	setup(seed int64, corrupt bool) error
	stack() *stack
	// window runs the workload's load for d and checks every output.
	window(ctx context.Context, d time.Duration, rec *recorder) (*windowResult, error)
	// clientOf names the client that owns a job's target table, or -1.
	clientOf(target string) int
	// replayInput is the generated input the layer replay pushes through
	// each layer on its own.
	replayInput() *replayInput
	close()
}

// runScript executes a parsed legacy script against addr with in-memory
// files, returning the client's result and any export output.
func runScript(addr string, script *etlscript.Script, files map[string][]byte) (*etlclient.Result, map[string][]byte, error) {
	exports := map[string][]byte{}
	res, err := etlclient.Run(script, etlclient.Options{
		Addr: addr,
		ReadFile: func(name string) ([]byte, error) {
			data, ok := files[name]
			if !ok {
				return nil, fmt.Errorf("script references unknown input %q", name)
			}
			return data, nil
		},
		WriteFile: func(name string, data []byte) error {
			exports[name] = data
			return nil
		},
	})
	return res, exports, err
}

// referenceRun executes script on the legacy reference engine and on the
// virtualized stack and requires a clean differential scrub: the generated
// inputs mean the same thing to both, and the manifest's counts hold on the
// reference. It returns the reference run's export files.
func referenceRun(st *stack, ddl []string, script *etlscript.Script, files map[string][]byte,
	tables []scrub.Table, expect []scrub.Expectation) (map[string][]byte, error) {
	ref := edw.NewServer()
	refAddr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting reference EDW: %w", err)
	}
	defer ref.Close()
	for _, s := range ddl {
		if _, err := ref.Engine().ExecSQL(s); err != nil {
			return nil, fmt.Errorf("reference DDL: %w", err)
		}
		if _, err := st.exec(s); err != nil {
			return nil, err
		}
	}
	_, refExports, err := runScript(refAddr, script, files)
	if err != nil {
		return nil, fmt.Errorf("reference run on EDW: %w", err)
	}
	_, subExports, err := runScript(st.nodeAddr, script, files)
	if err != nil {
		return nil, fmt.Errorf("reference run on virtualizer: %w", err)
	}
	for name, want := range refExports {
		if string(subExports[name]) != string(want) {
			return nil, fmt.Errorf("export %s differs between EDW and virtualizer", name)
		}
	}
	rep, err := scrub.Run(
		&scrub.EngineSource{Name: "edw", Engine: ref.Engine()},
		&scrub.EngineSource{Name: "virt", Engine: st.eng},
		scrub.Options{Tables: tables, Expect: expect})
	if err != nil {
		return nil, fmt.Errorf("reference scrub: %w", err)
	}
	if !rep.OK {
		return nil, fmt.Errorf("reference scrub found divergence:\n%s", rep.Diff())
	}
	return refExports, nil
}

// bulkExpectation is the scrub manifest entry for one generated import.
func bulkExpectation(in *bulkInput) ([]scrub.Table, []scrub.Expectation) {
	et, uv := in.Table+"_ET", in.Table+"_UV"
	return []scrub.Table{{Name: in.Table, ErrTables: []string{et, uv}}},
		[]scrub.Expectation{{
			Table: in.Table, Rows: in.Inserted,
			ErrRows: map[string]int64{strings.ToUpper(et): in.ErrorsET, strings.ToUpper(uv): in.ErrorsUV},
		}}
}

// bulkWorkload is bulk_clean and bulk_dirty: closed-loop clients each running
// one legacy import script per operation into their own fresh table.
type bulkWorkload struct {
	sz                                sizes
	rows, badDates, dupKeys, variants int

	st      *stack
	inputs  [][]*bulkInput // [client][variant]
	scripts [][]*etlscript.Script
	next    []int // per client: variant of the op in flight
	last    []*etlclient.Result
}

func (w *bulkWorkload) stack() *stack { return w.st }

func (w *bulkWorkload) clientOf(target string) int { return trailingClient(target, "BENCH.C") }

// trailingClient parses the client number that follows prefix in a target
// table name such as BENCH.C1 or N0.G03, or returns -1.
func trailingClient(target, prefix string) int {
	rest, ok := strings.CutPrefix(strings.ToUpper(target), prefix)
	if !ok {
		return -1
	}
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	c, err := strconv.Atoi(rest[:n])
	if err != nil {
		return -1
	}
	return c
}

func (w *bulkWorkload) close() {
	if w.st != nil {
		w.st.close()
	}
}

func (w *bulkWorkload) setup(seed int64, corrupt bool) error {
	rng := rand.New(rand.NewSource(seed))
	clients := w.sz.Clients
	w.inputs = make([][]*bulkInput, clients)
	w.scripts = make([][]*etlscript.Script, clients)
	w.next = make([]int, clients)
	w.last = make([]*etlclient.Result, clients)
	for c := 0; c < clients; c++ {
		table := fmt.Sprintf("BENCH.C%d", c)
		for v := 0; v < w.variants; v++ {
			in := genBulk(rng, table, w.rows, w.badDates, w.dupKeys)
			s, err := etlscript.Parse(in.Script)
			if err != nil {
				return fmt.Errorf("parsing generated script: %w", err)
			}
			w.inputs[c] = append(w.inputs[c], in)
			w.scripts[c] = append(w.scripts[c], s)
		}
	}
	if corrupt {
		for _, in := range w.inputs[0] {
			in.Inserted++
		}
	}

	st, err := newStack(0)
	if err != nil {
		return err
	}
	w.st = st

	// Reference run: the same script shape at a size the tuple-at-a-time
	// reference engine finishes quickly, same error shares.
	refRows := w.sz.ReferenceRows
	scale := func(n int) int { return (n*refRows + w.rows - 1) / w.rows }
	ref := genBulk(rng, "BENCH.REF", refRows, scale(w.badDates), scale(w.dupKeys))
	refScript, err := etlscript.Parse(ref.Script)
	if err != nil {
		return fmt.Errorf("parsing reference script: %w", err)
	}
	tables, expect := bulkExpectation(ref)
	if _, err := referenceRun(st, []string{ref.DDL}, refScript,
		map[string][]byte{bulkInfile: ref.Data}, tables, expect); err != nil {
		return err
	}
	return nil
}

func (w *bulkWorkload) window(ctx context.Context, d time.Duration, rec *recorder) (*windowResult, error) {
	ops := make([]int, w.sz.Clients)
	return closedLoop{
		Stack:   w.st,
		Clients: w.sz.Clients,
		Prepare: func(c int) error {
			w.next[c] = ops[c] % w.variants
			ops[c]++
			in := w.inputs[c][w.next[c]]
			if _, err := w.st.exec("DROP TABLE IF EXISTS " + in.Table); err != nil {
				return err
			}
			_, err := w.st.exec(in.DDL)
			return err
		},
		Op: func(c int) (opOutcome, error) {
			in := w.inputs[c][w.next[c]]
			res, _, err := runScript(w.st.nodeAddr, w.scripts[c][w.next[c]], map[string][]byte{bulkInfile: in.Data})
			w.last[c] = res
			if err != nil {
				return opOutcome{}, err
			}
			return opOutcome{Rows: in.Rows, ClientAcq: res.Imports[0].Acquisition}, nil
		},
		Verify: func(c int) error {
			return checkBulk(w.st, w.inputs[c][w.next[c]], &w.last[c].Imports[0])
		},
	}.run(ctx, d, rec)
}

// checkBulk compares what the client was told and what the warehouse now
// holds with the generator's exact expectation.
func checkBulk(st *stack, in *bulkInput, got *etlclient.ImportResult) error {
	if got.Inserted != in.Inserted || got.ErrorsET != in.ErrorsET || got.ErrorsUV != in.ErrorsUV {
		return fmt.Errorf("%s: client reported inserted/ET/UV %d/%d/%d, generator expects %d/%d/%d",
			in.Table, got.Inserted, got.ErrorsET, got.ErrorsUV, in.Inserted, in.ErrorsET, in.ErrorsUV)
	}
	for _, c := range []struct {
		table string
		want  int64
	}{{in.Table, in.Inserted}, {in.Table + "_ET", in.ErrorsET}, {in.Table + "_UV", in.ErrorsUV}} {
		n, err := st.count(c.table)
		if err != nil {
			return err
		}
		if n != c.want {
			return fmt.Errorf("%s holds %d rows, generator expects %d", c.table, n, c.want)
		}
	}
	return nil
}

func (w *bulkWorkload) replayInput() *replayInput {
	in := w.inputs[0][0]
	return &replayInput{
		Table: "BENCH.REPLAY", DDL: bulkDDL("BENCH.REPLAY"), DML: bulkDML("BENCH.REPLAY"),
		Layout: in.Layout, Data: in.Data, MaxErrors: 2 * int(in.ErrorsET+in.ErrorsUV),
	}
}
