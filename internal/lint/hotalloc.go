package lint

import "go/ast"

// hotpathDirective marks a function as being on the per-row conversion hot
// path. The annotation is load-bearing: hotalloc bans fmt calls inside any
// function carrying it.
const hotpathDirective = "//etlvirt:hotpath"

// newHotalloc builds the hotalloc analyzer: no fmt calls inside functions
// annotated //etlvirt:hotpath.
//
// Invariant (PR 5, §4-§5): the row-conversion hot path is (amortized)
// allocation-free — append codecs into caller-provided buffers, scratch
// records from pools. Every fmt formatting call allocates its result (and
// boxes its arguments), so one fmt.Sprintf per row puts the allocator back
// on the critical path and erodes the Figure 9 scalability claim. Error
// construction belongs in cold, un-annotated helper functions that the hot
// function calls only on failure paths.
func newHotalloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "forbid fmt calls inside functions annotated //etlvirt:hotpath (the per-row conversion path must not allocate)",
		Run:  runHotalloc,
	}
}

func runHotalloc(p *Pass) {
	for _, f := range p.Files {
		file := f
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd.Doc) {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if p.pkgOf(file, id) == "fmt" {
					p.Report(call,
						"fmt.%s inside hot-path function %s allocates per row; use append codecs or delegate to a cold error helper",
						sel.Sel.Name, name)
				}
				return true
			})
		}
	}
}

// isHotpath reports whether a function's doc group carries the hotpath
// directive.
func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotpathDirective {
			return true
		}
	}
	return false
}
