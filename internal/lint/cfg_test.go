package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildFirstFunc parses src and builds the CFG of its first function body.
func buildFirstFunc(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return BuildCFG(fd.Body), fset
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// TestCFGDumpGolden pins the builder's lowering of the control shapes the
// dataflow analyzers depend on: the golden text is the full block/edge
// structure, so an accidental change to edge placement fails loudly.
func TestCFGDumpGolden(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "labeled break and continue",
			src: `package p

func f(xs []int) int {
	sum := 0
outer:
	for i := 0; i < 10; i++ {
		for _, x := range xs {
			if x < 0 {
				continue outer
			}
			if x == 9 {
				break outer
			}
			sum += x
		}
	}
	return sum
}
`,
			want: `b0 entry: -> b2
b1 exit:
b2 body: -> b3
	L4 sum := 0
b3 label.outer: -> b4
	L6 i := 0
b4 for.head: -> b5 b6
	L6 i < 10
b5 for.body: -> b8
b6 for.done: -> b1
	L17 return sum
b7 for.post: -> b4
	L6 i++
b8 range.head: -> b9 b10
	L7 xs
b9 range.body: -> b11 b12
	L7 <range assign>
	L8 x < 0
b10 range.done: -> b7
b11 if.then: -> b7
b12 if.done: -> b13 b14
	L11 x == 9
b13 if.then: -> b6
b14 if.done: -> b8
	L14 sum += x
`,
		},
		{
			name: "select with default",
			src: `package p

func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case b <- 1:
	default:
		return -1
	}
	return 0
}
`,
			want: `b0 entry: -> b2
b1 exit:
b2 body: -> b4 b5 b6
b3 switch.done: -> b1
	L11 return 0
b4 case: -> b1
	L5 v := <-a
	L6 return v
b5 case: -> b3
	L7 b <- 1
b6 case: -> b1
	L9 return -1
`,
		},
		{
			name: "defer in loop",
			src: `package p

func f(n int) {
	for i := 0; i < n; i++ {
		defer release(i)
	}
}

func release(int) {}
`,
			want: `b0 entry: -> b2
b1 exit:
b2 body: -> b3
	L4 i := 0
b3 for.head: -> b4 b5
	L4 i < n
b4 for.body: -> b6
	L5 defer release(i)
b5 for.done: -> b1
b6 for.post: -> b3
	L4 i++
defers: L5
`,
		},
		{
			name: "naked returns",
			src: `package p

func f(ok bool) (n int, err error) {
	if ok {
		n = 1
		return
	}
	return
}
`,
			want: `b0 entry: -> b2
b1 exit:
b2 body: -> b3 b4
	L4 ok
b3 if.then: -> b1
	L5 n = 1
	L6 return
b4 if.done: -> b1
	L8 return
`,
		},
		{
			name: "short-circuit condition",
			src: `package p

func f(a, b bool) int {
	if a && b {
		return 1
	}
	return 0
}
`,
			want: `b0 entry: -> b2
b1 exit:
b2 body: -> b5 b4
	L4 a
b3 if.then: -> b1
	L5 return 1
b4 if.done: -> b1
	L7 return 0
b5 cond.and: -> b3 b4
	L4 b
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, fset := buildFirstFunc(t, c.src)
			got := g.Dump(fset)
			if got != c.want {
				t.Errorf("dump mismatch\n--- got ---\n%s--- want ---\n%s", got, c.want)
			}
		})
	}
}

// TestCFGEveryRepoFunction fuzzes the builder against every function body in
// the module: construction must not panic, and the structural invariants the
// solver relies on must hold for arbitrary real-world control flow.
func TestCFGEveryRepoFunction(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil // malformed fixtures are not the builder's problem
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			funcs++
			checkCFGInvariants(t, path, fd, fset)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if funcs < 100 {
		t.Errorf("walked only %d function bodies; expected the whole module", funcs)
	}
}

func checkCFGInvariants(t *testing.T, path string, fd *ast.FuncDecl, fset *token.FileSet) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: BuildCFG(%s) panicked: %v", path, fd.Name.Name, r)
		}
	}()
	g := BuildCFG(fd.Body)
	if g.Entry == nil || g.Exit == nil {
		t.Errorf("%s: %s: missing entry or exit", path, fd.Name.Name)
		return
	}
	if g.Entry.Kind != "entry" || g.Exit.Kind != "exit" {
		t.Errorf("%s: %s: entry/exit kinds = %q/%q", path, fd.Name.Name, g.Entry.Kind, g.Exit.Kind)
	}
	if len(g.Entry.Preds) != 0 {
		t.Errorf("%s: %s: entry has %d preds", path, fd.Name.Name, len(g.Entry.Preds))
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("%s: %s: exit has %d succs", path, fd.Name.Name, len(g.Exit.Succs))
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				t.Errorf("%s: %s: b%d -> b%d missing back-reference", path, fd.Name.Name, b.Index, s.Index)
			}
		}
		for _, n := range b.Nodes {
			if n == nil {
				t.Errorf("%s: %s: b%d holds a nil node", path, fd.Name.Name, b.Index)
			}
		}
	}
	// The solver and witness machinery must also hold up on every body.
	in := Flow(g, nil, func(n ast.Node, st State) {})
	ExitState(g, in, func(n ast.Node, st State) {})
	g.PathWitness(fset, g.Exit, nil)
	g.Dump(fset)
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}
