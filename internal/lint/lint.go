// Package lint is etlvirtlint's analyzer framework: a dependency-free
// static-analysis driver (go/parser + go/types + go/importer only) that
// enforces the virtualizer's cross-cutting correctness invariants at build
// time — the protocol discipline the runtime layers rely on but cannot
// check themselves (context lineage, error-chain wrapping, wire endianness,
// retry idempotence, metric-name hygiene, buffer and span ownership, lock
// order, SQL identifier quoting).
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// analysis package (Analyzer, Pass, Diagnostic) without importing it, so
// the module keeps its zero-dependency go.mod.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Pos      token.Position // resolved position of the offending node
	End      token.Position // resolved end of the offending node (zero if unknown)
	Analyzer string         // analyzer name, e.g. "ctxbg"
	Message  string

	// Related lists additional positions tied to the finding (for
	// retrysafe, the retrier.Do call enclosing the flagged Exec). A nolint
	// directive on any related line suppresses the finding too, so the
	// justification can sit where the intent lives.
	Related []token.Position

	// Witness is the CFG path witness of a dataflow finding: the statement
	// sequence from function entry that reaches the violation, so -json
	// consumers can act on the finding without rerunning the solver.
	Witness []Witness
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // import path, e.g. "etlvirt/internal/core"
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	dirs   *directiveResolver
}

// Report files a diagnostic at node n.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	p.ReportRelated(n, nil, format, args...)
}

// ReportRelated files a diagnostic at node n with extra positions whose
// nolint directives also suppress it.
func (p *Pass) ReportRelated(n ast.Node, related []ast.Node, format string, args ...any) {
	p.ReportWitness(n, nil, related, format, args...)
}

// ReportWitness files a dataflow diagnostic carrying the CFG path witness
// that reaches the violation.
func (p *Pass) ReportWitness(n ast.Node, witness []Witness, related []ast.Node, format string, args ...any) {
	d := Diagnostic{
		Pos:      p.Fset.Position(n.Pos()),
		End:      p.Fset.Position(n.End()),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Witness:  witness,
	}
	for _, r := range related {
		d.Related = append(d.Related, p.Fset.Position(r.Pos()))
	}
	p.report(d)
}

// FuncDirectives resolves the //etlvirt: directives on the declaration of
// fn, looking across package boundaries (the declaring package's AST comes
// from the run set or the loader's dependency cache).
func (p *Pass) FuncDirectives(fn *types.Func) []directive {
	if p.dirs == nil {
		return nil
	}
	return p.dirs.funcDirectives(fn)
}

// Filename returns the file name a node lives in.
func (p *Pass) Filename(n ast.Node) string {
	return p.Fset.Position(n.Pos()).Filename
}

// TypeOf returns the static type of e, or nil when type information is
// unavailable (a package that failed to fully type-check still runs every
// analyzer on what was resolved).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// Uses resolves an identifier to the object it refers to, or nil.
func (p *Pass) Uses(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.Uses[id]
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string // one-line description shown by -help and the JSON header
	Run  func(*Pass)

	// End, when set, runs once after every package's Run pass. It is where
	// a cross-package analyzer (lockorder's acquisition graph) reports
	// findings that need the whole run's state.
	End func(report func(Diagnostic))
}

// Analyzers returns a fresh instance of every etlvirtlint analyzer.
// Instances carry per-run state (metricname's cross-package duplicate
// table, lockorder's acquisition graph), so each driver invocation must use
// its own set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		newCtxbg(),
		newErrwrapw(),
		newEndian(),
		newRetrysafe(),
		newMetricname(),
		newBufown(),
		newSpanbalance(),
		newLockorder(),
		newSqlident(),
	}
}

// Result is the outcome of running a set of analyzers over a set of
// packages: the surviving findings plus the count of findings a //nolint
// directive suppressed, per analyzer.
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  map[string]int // analyzer name -> nolint-suppressed findings
}

// Runner drives analyzers over loaded packages and applies nolint
// filtering. It also reports every //nolint:<name> that names no analyzer
// and every //etlvirt:<verb> that no analyzer reads (analyzer "directive"),
// so a misspelt or stale directive cannot pass for a justified exception.
type Runner struct {
	Analyzers []*Analyzer

	// Loader, when set, lets analyzers resolve //etlvirt: directives on
	// functions in module-internal dependency packages outside the run set.
	Loader *Loader
}

// Run executes every analyzer over every package, fires the End hooks, and
// returns the filtered, position-sorted findings.
func (r *Runner) Run(pkgs []*Package) Result {
	res := Result{Suppressed: make(map[string]int)}
	dirs := newDirectiveResolver(pkgs, r.Loader)
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	merged := make(nolintIndex)
	for _, pkg := range pkgs {
		nolint, unknown := collectNolint(pkg, known)
		res.Diagnostics = append(res.Diagnostics, unknown...)
		for file, lines := range nolint {
			merged[file] = lines
		}
		for _, a := range r.Analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				dirs:     dirs,
			}
			pass.report = func(d Diagnostic) {
				if nolint.suppresses(d) {
					res.Suppressed[a.Name]++
					return
				}
				res.Diagnostics = append(res.Diagnostics, d)
			}
			a.Run(pass)
		}
	}
	for _, a := range r.Analyzers {
		if a.End == nil {
			continue
		}
		name := a.Name
		a.End(func(d Diagnostic) {
			if merged.suppresses(d) {
				res.Suppressed[name]++
				return
			}
			res.Diagnostics = append(res.Diagnostics, d)
		})
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// nolintIndex maps file -> line -> the set of analyzer names silenced
// there. The wildcard entry "*" silences every analyzer.
type nolintIndex map[string]map[int]map[string]bool

// collectNolint scans a package's comments for //nolint directives. A
// directive applies to findings on its own line and on the line directly
// below it (so it can sit on the statement or on a comment line above it).
//
//	foo() //nolint:ctxbg          — silences ctxbg on this line
//	//nolint:ctxbg,errwrapw       — silences both on the next line
//	//nolint                      — silences every analyzer on the next line
//
// The same scan reports the directives that name nothing: a //nolint name
// not in known, and an //etlvirt: verb no analyzer reads.
func collectNolint(pkg *Package, known map[string]bool) (nolintIndex, []Diagnostic) {
	idx := make(nolintIndex)
	var unknown []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				report := func(format string, args ...any) {
					unknown = append(unknown, Diagnostic{Pos: pkg.Fset.Position(c.Pos()), End: pkg.Fset.Position(c.End()),
						Analyzer: "directive", Message: fmt.Sprintf(format, args...)})
				}
				names, ok := parseNolint(c.Text)
				if !ok {
					if d, ok := parseDirective(c.Text); ok && !directiveVerbs[d.Verb] {
						report("//etlvirt:%s is read by no analyzer", d.Verb)
					}
					continue
				}
				for _, n := range names {
					if n != "*" && !known[n] {
						report("//nolint:%s names no analyzer, so it silences nothing", n)
					}
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := lines[line]
					if set == nil {
						set = make(map[string]bool)
						lines[line] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return idx, unknown
}

// parseNolint recognizes "//nolint" and "//nolint:a,b" (with optional
// trailing justification after a space). It returns the silenced analyzer
// names, or {"*"} for the bare form.
func parseNolint(text string) ([]string, bool) {
	body, ok := strings.CutPrefix(text, "//nolint")
	if !ok {
		return nil, false
	}
	if body == "" || body[0] == ' ' || body[0] == '\t' {
		return []string{"*"}, true
	}
	if body[0] != ':' {
		return nil, false
	}
	body = body[1:]
	// strip a trailing justification: "ctxbg,endian -- reason" or
	// "ctxbg // reason"
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		body = body[:i]
	}
	var names []string
	for _, n := range strings.Split(body, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return []string{"*"}, true
	}
	return names, true
}

func (idx nolintIndex) suppresses(d Diagnostic) bool {
	at := func(pos token.Position) bool {
		set := idx[pos.Filename][pos.Line]
		return set["*"] || set[d.Analyzer]
	}
	if at(d.Pos) {
		return true
	}
	for _, r := range d.Related {
		if at(r) {
			return true
		}
	}
	return false
}

// walkFiles applies fn to every node of every file in the pass.
func (p *Pass) walkFiles(fn func(file *ast.File, n ast.Node) bool) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			return fn(file, n)
		})
	}
}

// pkgOf resolves which imported package an identifier names, e.g. the
// "context" in context.Background. It prefers type information and falls
// back to matching the file's import specs by local name, so analyzers
// still fire on packages that failed to type-check.
func (p *Pass) pkgOf(file *ast.File, id *ast.Ident) string {
	if obj := p.Uses(id); obj != nil {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // shadowed by a local object
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		} else {
			name = path
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}
