package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes one Loader per test binary: fixture packages share
// the type-checked standard library and module packages across tests.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// loadFixture loads one testdata package by fixture name.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModDir, "internal/lint/testdata/src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s type error: %v", name, terr)
	}
	return pkg
}

// wantRE extracts `want "regex"` expectations from fixture comments.
var wantRE = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// expectations maps file:line to the unmatched want regexes declared there.
func expectations(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// runFixture runs one analyzer over one fixture and matches diagnostics
// against the fixture's want comments: every finding must be expected and
// every expectation must fire.
func runFixture(t *testing.T, analyzerName, fixture string) Result {
	t.Helper()
	var analyzer *Analyzer
	for _, a := range Analyzers() {
		if a.Name == analyzerName {
			analyzer = a
		}
	}
	if analyzer == nil {
		t.Fatalf("no analyzer %q", analyzerName)
	}
	return runSuite(t, []*Analyzer{analyzer}, fixture)
}

// runSuite runs a set of analyzers over one fixture and matches diagnostics
// against its want comments.
func runSuite(t *testing.T, analyzers []*Analyzer, fixture string) Result {
	t.Helper()
	pkg := loadFixture(t, fixture)
	res := (&Runner{Analyzers: analyzers}).Run([]*Package{pkg})
	wants := expectations(t, pkg)
	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("expected diagnostic at %s matching %q, got none", key, re)
		}
	}
	return res
}

// The dataflow-tier fixtures assert the suppression count too: each analyzer
// keeps one deliberate, justified escape-hatch case.
func TestBufownFixture(t *testing.T) {
	res := runFixture(t, "bufown", "bufown")
	if got := res.Suppressed["bufown"]; got != 1 {
		t.Errorf("suppressed[bufown] = %d, want 1", got)
	}
}

func TestSpanbalanceFixture(t *testing.T) {
	res := runFixture(t, "spanbalance", "spanbalance")
	if got := res.Suppressed["spanbalance"]; got != 1 {
		t.Errorf("suppressed[spanbalance] = %d, want 1", got)
	}
}

func TestLockorderFixture(t *testing.T) {
	res := runFixture(t, "lockorder", "lockorder")
	if got := res.Suppressed["lockorder"]; got != 1 {
		t.Errorf("suppressed[lockorder] = %d, want 1", got)
	}
}

func TestSqlidentFixture(t *testing.T) {
	res := runFixture(t, "sqlident", "sqlident")
	if got := res.Suppressed["sqlident"]; got != 1 {
		t.Errorf("suppressed[sqlident] = %d, want 1", got)
	}
}

func TestCtxbgFixture(t *testing.T)      { runFixture(t, "ctxbg", "ctxbg") }
func TestErrwrapwFixture(t *testing.T)   { runFixture(t, "errwrapw", "errwrapw") }
func TestRetrysafeFixture(t *testing.T)  { runFixture(t, "retrysafe", "retrysafe") }
func TestMetricnameFixture(t *testing.T) { runFixture(t, "metricname", "metricname") }

// TestEndianFixture runs the endian analyzer over the mirror of every
// package in its scope that has one: DWP, the CDW protocol and the
// primitives they share.
func TestEndianFixture(t *testing.T) {
	for _, dir := range fixtureDirs["endian"] {
		runFixture(t, "endian", dir)
	}
}

// TestNolintSuppression checks the escape hatch: three of the four
// context.Background calls in the fixture carry a matching directive and
// are suppressed (and counted); the one naming the wrong analyzer still
// fires.
func TestNolintSuppression(t *testing.T) {
	res := runFixture(t, "ctxbg", "nolint")
	if got := res.Suppressed["ctxbg"]; got != 3 {
		t.Errorf("suppressed[ctxbg] = %d, want 3", got)
	}
	if len(res.Diagnostics) != 1 {
		t.Errorf("diagnostics = %d, want 1 (the //nolint:endian one)", len(res.Diagnostics))
	}
}

// TestUnknownDirectives checks that a directive naming nothing is a finding:
// a //nolint name no analyzer has (which silences nothing, so the finding it
// meant to silence fires too) and an //etlvirt: verb no analyzer reads. Bare
// //nolint and the known names keep their meaning.
func TestUnknownDirectives(t *testing.T) {
	res := runSuite(t, Analyzers(), "unknown")
	if got := res.Suppressed["ctxbg"]; got != 2 {
		t.Errorf("suppressed[ctxbg] = %d, want 2 (the ctxbg,nosuch and bare cases)", got)
	}
}

// TestEndianScopeLimited checks the endian rule stays confined to the
// wire-format packages: the same LittleEndian reference in an unscoped
// package is not a finding.
func TestEndianScopeLimited(t *testing.T) {
	for _, path := range []string{"etlvirt/internal/convert", "etlvirt/internal/core"} {
		if endianScoped(path) {
			t.Errorf("endianScoped(%q) = true, want false", path)
		}
	}
	for _, path := range []string{"etlvirt/internal/wire", "etlvirt/internal/cdwnet", "etlvirt/internal/bincodec", "etlvirt/internal/tdf", "etlvirt/internal/ltype"} {
		if !endianScoped(path) {
			t.Errorf("endianScoped(%q) = false, want true", path)
		}
	}
}

// TestSelfClean runs the full analyzer suite over the linter's own
// sources: the tool must hold itself to the invariants it enforces,
// without a single escape hatch.
func TestSelfClean(t *testing.T) {
	l := testLoader(t)
	var pkgs []*Package
	for _, dir := range []string{"internal/lint", "cmd/etlvirtlint"} {
		pkg, err := l.LoadDir(filepath.Join(l.ModDir, dir))
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s type error: %v", dir, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	res := (&Runner{Analyzers: Analyzers()}).Run(pkgs)
	for _, d := range res.Diagnostics {
		t.Errorf("self-lint finding: %s", d)
	}
	if n := len(res.Suppressed); n != 0 {
		t.Errorf("self-lint uses %d //nolint suppressions; the linter's own sources must not need the escape hatch", n)
	}
}

// fixtureDirs maps each analyzer to the testdata packages that exercise it.
// A new analyzer must be added here: TestFixtureCoverage fails otherwise.
var fixtureDirs = map[string][]string{
	"ctxbg":       {"ctxbg", "nolint"},
	"errwrapw":    {"errwrapw"},
	"endian":      {"wire", "cdwnet", "bincodec"},
	"retrysafe":   {"retrysafe"},
	"metricname":  {"metricname"},
	"bufown":      {"bufown"},
	"spanbalance": {"spanbalance"},
	"lockorder":   {"lockorder"},
	"sqlident":    {"sqlident"},
}

// TestFixtureCoverage is the fixture-hygiene gate: every registered analyzer must have at least one fixture with a
// positive want expectation and at least one fixture exercising its //nolint
// escape hatch, so both the detection and the suppression paths stay pinned.
func TestFixtureCoverage(t *testing.T) {
	l := testLoader(t)
	for _, a := range Analyzers() {
		dirs, ok := fixtureDirs[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture mapping; add its testdata package(s) to fixtureDirs", a.Name)
			continue
		}
		wants, nolints := 0, 0
		for _, dir := range dirs {
			pkg, err := l.LoadDir(filepath.Join(l.ModDir, "internal/lint/testdata/src", dir))
			if err != nil {
				t.Fatalf("loading fixture %s: %v", dir, err)
			}
			wants += len(expectations(t, pkg))
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						names, ok := parseNolint(c.Text)
						if !ok {
							continue
						}
						for _, name := range names {
							if name == a.Name {
								nolints++
							}
						}
					}
				}
			}
		}
		if wants == 0 {
			t.Errorf("analyzer %s: no want-comment fixture in %v", a.Name, dirs)
		}
		if nolints == 0 {
			t.Errorf("analyzer %s: no //nolint:%s fixture case in %v; the escape hatch is untested", a.Name, a.Name, dirs)
		}
	}
}

// TestParseNolint pins the directive grammar.
func TestParseNolint(t *testing.T) {
	cases := []struct {
		in   string
		want string // comma-joined names, "" = not a directive
	}{
		{"//nolint", "*"},
		{"//nolint:ctxbg", "ctxbg"},
		{"//nolint:ctxbg,endian", "ctxbg,endian"},
		{"//nolint:ctxbg // reason", "ctxbg"},
		{"//nolint: ", "*"},
		{"// nolint:ctxbg", ""},
		{"//nolintish", ""},
		{"// regular comment", ""},
	}
	for _, c := range cases {
		names, ok := parseNolint(c.in)
		got := strings.Join(names, ",")
		if !ok {
			got = ""
		}
		if got != c.want {
			t.Errorf("parseNolint(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
