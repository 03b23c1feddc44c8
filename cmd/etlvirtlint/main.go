// Command etlvirtlint runs the project's static-analysis suite: nine
// dependency-free analyzers that enforce the pipeline's cross-cutting
// correctness invariants (see internal/lint and DESIGN.md "Static
// invariants").
//
// Usage:
//
//	etlvirtlint [flags] [packages]
//
//	etlvirtlint ./...
//	etlvirtlint -json ./internal/core
//	etlvirtlint -list
//
// Every run applies every analyzer. Packages default to ./... relative to the module root containing the
// working directory. Directives on functions in module-internal packages
// outside the named set are resolved through the loader, so linting one
// package reports what linting ./... reports for it. The exit status is 1
// when any finding survives //nolint filtering, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"etlvirt/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("etlvirtlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: etlvirtlint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "etlvirtlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "etlvirtlint:", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "etlvirtlint:", err)
		return 2
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "etlvirtlint: warning: %s: %v\n", p.Path, terr)
		}
	}

	res := (&lint.Runner{Analyzers: analyzers, Loader: loader}).Run(pkgs)

	if *jsonOut {
		return emitJSON(stdout, stderr, analyzers, res)
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if n := totalSuppressed(res); n > 0 {
		fmt.Fprintf(stderr, "etlvirtlint: %d finding(s) suppressed by //nolint (%s)\n", n, suppressionSummary(res))
	}
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "etlvirtlint: %d finding(s)\n", len(res.Diagnostics))
		return 1
	}
	return 0
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Analyzers   []jsonAnalyzer `json:"analyzers"`
	Findings    []jsonFinding  `json:"findings"`
	Suppressed  map[string]int `json:"suppressed,omitempty"`
	FindingsLen int            `json:"count"`
}

type jsonAnalyzer struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

type jsonFinding struct {
	File      string        `json:"file"`
	Line      int           `json:"line"`
	Column    int           `json:"column"`
	EndLine   int           `json:"endLine,omitempty"`
	EndColumn int           `json:"endColumn,omitempty"`
	Analyzer  string        `json:"analyzer"`
	Message   string        `json:"message"`
	Witness   []jsonWitness `json:"witness,omitempty"`
}

// jsonWitness is one step of a dataflow finding's CFG path witness: the
// statement sequence from function entry that reaches the violation.
type jsonWitness struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Text string `json:"text"`
}

func emitJSON(stdout, stderr io.Writer, analyzers []*lint.Analyzer, res lint.Result) int {
	rep := jsonReport{Suppressed: res.Suppressed, FindingsLen: len(res.Diagnostics)}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, jsonAnalyzer{Name: a.Name, Doc: a.Doc})
	}
	for _, d := range res.Diagnostics {
		f := jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		}
		if d.End.IsValid() {
			f.EndLine, f.EndColumn = d.End.Line, d.End.Column
		}
		for _, w := range d.Witness {
			f.Witness = append(f.Witness, jsonWitness{File: w.Pos.Filename, Line: w.Pos.Line, Text: w.Text})
		}
		rep.Findings = append(rep.Findings, f)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "etlvirtlint:", err)
		return 2
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

func totalSuppressed(res lint.Result) int {
	n := 0
	for _, c := range res.Suppressed {
		n += c
	}
	return n
}

func suppressionSummary(res lint.Result) string {
	var names []string
	for name := range res.Suppressed {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, res.Suppressed[name]))
	}
	return strings.Join(parts, ", ")
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
