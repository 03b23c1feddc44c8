package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// The ctxbg fixture package: two findings, analyzer ctxbg.
const ctxbgFixture = "./internal/lint/testdata/src/ctxbg"

// The spanbalance fixture: dataflow findings with CFG path witnesses.
const spanbalanceFixture = "./internal/lint/testdata/src/spanbalance"

func TestJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", ctxbgFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	var rep struct {
		Analyzers []struct{ Name string } `json:"analyzers"`
		Findings  []struct {
			Analyzer string `json:"analyzer"`
			Line     int    `json:"line"`
		} `json:"findings"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Count != 2 || len(rep.Findings) != 2 {
		t.Fatalf("count = %d findings = %d, want 2", rep.Count, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "ctxbg" {
			t.Errorf("finding analyzer = %q, want ctxbg", f.Analyzer)
		}
	}
	if len(rep.Analyzers) != 9 {
		t.Errorf("analyzers = %d, want 9", len(rep.Analyzers))
	}
}

// TestJSONWitness pins the machine-readable dataflow evidence: the full
// suite over the spanbalance fixture yields only spanbalance findings, and
// each carries its end position and the entry-to-violation statement path.
func TestJSONWitness(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", spanbalanceFixture}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	var rep struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			Line     int    `json:"line"`
			EndLine  int    `json:"endLine"`
			Witness  []struct {
				Line int    `json:"line"`
				Text string `json:"text"`
			} `json:"witness"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "spanbalance" {
			t.Errorf("finding at line %d from %s, want spanbalance", f.Line, f.Analyzer)
		}
		if f.EndLine < f.Line {
			t.Errorf("finding at line %d: endLine = %d, want >= start", f.Line, f.EndLine)
		}
		if len(f.Witness) == 0 {
			t.Errorf("finding at line %d has no path witness", f.Line)
			continue
		}
		last := f.Witness[len(f.Witness)-1]
		if last.Text == "" || last.Line == 0 {
			t.Errorf("finding at line %d: empty witness step %+v", f.Line, last)
		}
	}
}

// TestSinglePackageRun: linting one package resolves //etlvirt: directives
// declared in its module-internal dependencies, so it reports exactly what
// linting ./... reports for that package — here, nothing.
func TestSinglePackageRun(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"./internal/core"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("findings on a clean package:\n%s", out.String())
	}
}

func TestListFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	names := []string{
		"ctxbg", "errwrapw", "endian", "retrysafe", "metricname",
		"bufown", "spanbalance", "lockorder", "sqlident",
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}
