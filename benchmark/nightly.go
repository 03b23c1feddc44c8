package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"etlvirt/internal/etlclient"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/scrub"
	scenario "etlvirt/internal/workload"
)

// nightlyWorkload is nightly_mix: closed-loop clients on one node, each
// running a whole §8-style nightly script per operation — small dirty
// imports, the all-types and wide imports, a summary INSERT…SELECT, an
// ordered export and a short stream — in its own database.
type nightlyWorkload struct {
	sz      sizes
	st      *stack
	inputs  [][]*nightlyInput // [client][variant]
	scripts [][]*etlscript.Script
	exports []map[string][]byte // [variant]: what the export files must hold
	ops     []int               // per client: operations started
	next    []int               // per client: variant of the op in flight
	last    []nightlyOutcome
}

type nightlyOutcome struct {
	res     *etlclient.Result
	exports map[string][]byte
}

func (w *nightlyWorkload) stack() *stack { return w.st }

func (w *nightlyWorkload) clientOf(target string) int { return trailingClient(target, "N") }

func (w *nightlyWorkload) close() {
	if w.st != nil {
		w.st.close()
	}
}

func (w *nightlyWorkload) setup(seed int64, corrupt bool) error {
	st, err := newStack(0)
	if err != nil {
		return err
	}
	w.st = st

	// A scenario's cost swings with how many error rows its few dozen input
	// rows happen to carry, so each client cycles through several scenarios
	// generated from the seed; a run then averages over them. Every client
	// runs the same scenarios under its own database name.
	variantSeed := func(v int) int64 { return seed*1000 + int64(v) }
	clients, variants := w.sz.Clients, w.sz.NightlyVariants
	w.inputs = make([][]*nightlyInput, clients)
	w.scripts = make([][]*etlscript.Script, clients)
	w.exports = make([]map[string][]byte, variants)
	w.ops = make([]int, clients)
	w.next = make([]int, clients)
	w.last = make([]nightlyOutcome, clients)
	for c := 0; c < clients; c++ {
		for v := 0; v < variants; v++ {
			in, err := genNightly(w.sz, variantSeed(v), fmt.Sprintf("N%d", c))
			if err != nil {
				return err
			}
			s, err := etlscript.Parse(in.Scenario.Script)
			if err != nil {
				return fmt.Errorf("parsing scenario: %w", err)
			}
			w.inputs[c] = append(w.inputs[c], in)
			w.scripts[c] = append(w.scripts[c], s)
			if c == 0 {
				if w.exports[v], err = exportOracle(in.Scenario); err != nil {
					return err
				}
			}
		}
	}

	// Reference run of the first scenario on the legacy engine and on the
	// virtualizer; it also proves the export oracle against the legacy
	// engine's own export file.
	ref, err := genNightly(w.sz, variantSeed(0), "REF")
	if err != nil {
		return err
	}
	refScript, err := etlscript.Parse(ref.Scenario.Script)
	if err != nil {
		return fmt.Errorf("parsing reference scenario: %w", err)
	}
	refExports, err := referenceRun(st, ref.Scenario.DDL, refScript, ref.Scenario.Files,
		ref.Scenario.Tables, ref.Scenario.Expect)
	if err != nil {
		return err
	}
	for name, want := range w.exports[0] {
		if !bytes.Equal(refExports[name], want) {
			return fmt.Errorf("export oracle disagrees with the reference engine on %s", name)
		}
	}
	if corrupt {
		for _, in := range w.inputs[0] {
			in.Scenario.Expect[0].Rows++
		}
	}
	return nil
}

// exportOracle derives the scenario's export file from its input alone: the
// export dumps key and date of group 0's table in key order, and a row of the
// group's input lands unless its date is bad or its key already landed.
func exportOracle(sc *scenario.Scenario) (map[string][]byte, error) {
	if len(sc.Exports) != 1 {
		return nil, fmt.Errorf("scenario has %d exports, the oracle knows the one over group 0", len(sc.Exports))
	}
	var rows []string
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(sc.Files["g00.txt"]), "\n"), "\n") {
		f := strings.Split(line, "|")
		key, date := f[0], f[len(f)-1]
		if _, err := time.Parse("2006-01-02", date); err != nil || seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, key+"|"+date+"\n")
	}
	sort.Strings(rows)
	if int64(len(rows)) != sc.Exports[0].Rows {
		return nil, fmt.Errorf("export oracle finds %d rows, the scenario's manifest %d", len(rows), sc.Exports[0].Rows)
	}
	return map[string][]byte{sc.Exports[0].Outfile: []byte(strings.Join(rows, ""))}, nil
}

// reset drops and recreates the client's tables and forgets its stream's
// checkpoint, or the next op's stream would resume past every delta.
func (w *nightlyWorkload) reset(c int) error {
	// Clients start half a cycle apart so they rarely run the same scenario
	// at the same time.
	w.next[c] = (w.ops[c] + c*w.sz.NightlyVariants/w.sz.Clients) % w.sz.NightlyVariants
	w.ops[c]++
	in := w.inputs[c][w.next[c]]
	for _, t := range in.Scenario.Tables {
		for _, name := range append([]string{t.Name}, t.ErrTables...) {
			if _, err := w.st.exec("DROP TABLE IF EXISTS " + name); err != nil {
				return err
			}
		}
	}
	for _, ddl := range in.Scenario.DDL {
		if _, err := w.st.exec(ddl); err != nil {
			return err
		}
	}
	// The checkpoint table appears with the first stream the node serves.
	_, err := w.st.eng.ExecSQL("DELETE FROM etl_stage.stream_checkpoints WHERE STREAM_NAME = '" + in.streamName() + "'")
	if err != nil && !strings.Contains(err.Error(), "stream_checkpoints") {
		return fmt.Errorf("forgetting stream checkpoint: %w", err)
	}
	return nil
}

func (w *nightlyWorkload) window(ctx context.Context, d time.Duration, rec *recorder) (*windowResult, error) {
	res, err := closedLoop{
		Stack:   w.st,
		Clients: w.sz.Clients,
		Prepare: w.reset,
		Op: func(c int) (opOutcome, error) {
			v := w.next[c]
			res, exports, err := runScript(w.st.nodeAddr, w.scripts[c][v], w.inputs[c][v].Scenario.Files)
			w.last[c] = nightlyOutcome{res: res, exports: exports}
			if err != nil {
				return opOutcome{}, err
			}
			var out opOutcome
			for _, im := range res.Imports {
				out.Rows += im.RowsSent
				out.ClientAcq += im.Acquisition
			}
			for _, s := range res.Streams {
				out.Rows += s.DeltasSent
			}
			for _, ex := range res.Exports {
				out.Rows += ex.Rows
			}
			return out, nil
		},
		Verify: w.check,
	}.run(ctx, d, rec)
	if err != nil {
		return nil, err
	}
	res.Gen = map[string]float64{}
	if last := w.last[0].res; last != nil && len(last.Streams) > 0 {
		res.Gen["stream.final_hint"] = float64(last.Streams[0].FinalHint)
		res.Gen["stream.replayed"] = float64(last.Streams[0].Replayed)
	}
	return res, nil
}

// check holds the warehouse to the scenario's manifest (row counts of every
// target and error table, domain predicates) and the export files to the
// oracle's bytes.
func (w *nightlyWorkload) check(c int) error {
	sc := w.inputs[c][w.next[c]].Scenario
	src := &scrub.EngineSource{Name: "virt", Engine: w.st.eng}
	rep, err := scrub.Run(src, src, scrub.Options{Tables: sc.Tables, Expect: sc.Expect})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("manifest check:\n%s", rep.Diff())
	}
	for _, ex := range sc.Exports {
		got, ok := w.last[c].exports[ex.Outfile]
		if !ok {
			return fmt.Errorf("export %s was not written", ex.Outfile)
		}
		if !bytes.Equal(got, w.exports[w.next[c]][ex.Outfile]) {
			return fmt.Errorf("export %s differs from the export oracle", ex.Outfile)
		}
	}
	return nil
}

func (w *nightlyWorkload) replayInput() *replayInput {
	// Group 0 is the plain import the export reads back.
	sc := w.inputs[0][0].Scenario
	blk := w.scripts[0][0].Steps[0].Import
	layout, err := w.scripts[0][0].Layout(blk.Imports[0].LayoutName)
	if err != nil {
		panic("nightly scenario lost its first layout: " + err.Error())
	}
	table := "BENCH.REPLAY"
	return &replayInput{
		Table:  table,
		DDL:    strings.Replace(sc.DDL[0], blk.Table, table, 1),
		DML:    strings.Replace(blk.DMLs[strings.ToLower(blk.Imports[0].ApplyLabel)], blk.Table, table, 1),
		Layout: layout, Data: sc.Files[blk.Imports[0].Infile],
	}
}
