package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Machine-checkable source directives: the ownership and quoting contracts
// the dataflow analyzers consume (see DESIGN.md "Static invariants" for the
// full grammar):
//
//	//etlvirt:owns <path>             function owns buffer <path> ("m.Payload") at
//	                                  entry and must release or transfer it on
//	                                  every path (bufown)
//	//etlvirt:owns                    on a struct field: values received from a
//	                                  channel carry buffer ownership in this field;
//	                                  sending a composite literal with this field
//	                                  set transfers the buffer (bufown)
//	//etlvirt:transfers <param>       callers lose ownership of the buffer passed
//	                                  as <param>; the callee releases or re-owns it
//	                                  (bufown)
//	//etlvirt:sqlclean                the function's string results are safely
//	                                  quoted/rendered SQL fragments (sqlident)
//
// Any other verb is a finding: the Runner reports it so a stale or misspelt
// directive cannot pass for a contract.

const directivePrefix = "//etlvirt:"

// directiveVerbs is every verb an analyzer reads.
var directiveVerbs = map[string]bool{"owns": true, "transfers": true, "sqlclean": true}

// directive is one parsed //etlvirt: comment: a verb and its arguments.
type directive struct {
	Verb string
	Args []string
}

// parseDirective parses one comment's text, or ok=false.
func parseDirective(text string) (directive, bool) {
	body, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return directive{}, false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return directive{}, false
	}
	return directive{Verb: fields[0], Args: fields[1:]}, true
}

// groupDirectives parses every directive in a comment group.
func groupDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c.Text); ok {
			out = append(out, d)
		}
	}
	return out
}

// funcDirectives returns the directives in a function's doc comment.
func funcDirectives(fd *ast.FuncDecl) []directive {
	return groupDirectives(fd.Doc)
}

// fieldDirectives returns the directives attached to a struct field, from
// its doc comment or trailing line comment.
func fieldDirectives(f *ast.Field) []directive {
	return append(groupDirectives(f.Doc), groupDirectives(f.Comment)...)
}

// PathKey canonicalizes an expression naming a storage location into a
// stable state key: an identifier, a selector chain rooted at an identifier,
// or a pointer dereference of either ("buf", "m.Payload", "(*dst)"). The
// root object disambiguates shadowed names. Expressions that are not simple
// access paths (calls, index expressions) return ok=false and are untracked.
func (p *Pass) PathKey(e ast.Expr) (key string, root types.Object, ok bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.PathKey(e.X)
	case *ast.Ident:
		obj := p.Uses(e)
		if obj == nil && p.Info != nil {
			obj = p.Info.Defs[e]
		}
		if obj == nil {
			return "", nil, false
		}
		return keyFor(e.Name, obj), obj, true
	case *ast.SelectorExpr:
		k, root, ok := p.PathKey(e.X)
		if !ok {
			return "", nil, false
		}
		return k + "." + e.Sel.Name, root, true
	case *ast.StarExpr:
		k, root, ok := p.PathKey(e.X)
		if !ok {
			return "", nil, false
		}
		return "(*" + k + ")", root, true
	}
	return "", nil, false
}

// keyFor is the state key of the object obj named name.
func keyFor(name string, obj types.Object) string {
	return name + "#" + strconv.Itoa(int(obj.Pos()))
}

// pathString renders an access path for humans ("m.Payload"), without the
// disambiguating object positions of PathKey.
func pathString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return pathString(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return pathString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + pathString(e.X)
	}
	return "?"
}

// isBodyLocal reports whether obj is declared inside the function body (not
// a parameter, receiver, or package-level object).
func isBodyLocal(obj types.Object, body *ast.BlockStmt) bool {
	return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// funcParamObj resolves a parameter (or receiver) name of fd to its object.
func (p *Pass) funcParamObj(fd *ast.FuncDecl, name string) types.Object {
	fields := []*ast.FieldList{fd.Type.Params}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv)
	}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				if id.Name == name && p.Info != nil {
					if obj := p.Info.Defs[id]; obj != nil {
						return obj
					}
				}
			}
		}
	}
	return nil
}

// forEachFuncBody applies fn to every function or method body in the pass,
// including function literals (each literal is visited as its own body).
func (p *Pass) forEachFuncBody(fn func(file *ast.File, decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		file := f
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(file, fd, fd.Body)
			}
		}
	}
}

// calleeFunc resolves a call expression to the function object it invokes,
// or nil (calls through interfaces or function values).
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := p.Uses(id).(*types.Func); ok {
		return fn
	}
	return nil
}

// directiveResolver answers "what directives does this function object
// carry" across package boundaries: the declaring package's AST is found in
// the run's package set or the loader's dependency cache, and the enclosing
// FuncDecl's doc directives are returned. Results are memoized per run.
type directiveResolver struct {
	pkgs   map[string]*Package
	loader *Loader
	memo   map[types.Object][]directive
}

func newDirectiveResolver(pkgs []*Package, loader *Loader) *directiveResolver {
	r := &directiveResolver{pkgs: make(map[string]*Package), loader: loader, memo: make(map[types.Object][]directive)}
	for _, p := range pkgs {
		r.pkgs[p.Path] = p
	}
	return r
}

// funcDirectives returns the doc directives of the FuncDecl declaring fn.
func (r *directiveResolver) funcDirectives(fn *types.Func) []directive {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if ds, ok := r.memo[fn]; ok {
		return ds
	}
	var ds []directive
	pkg := r.pkgs[fn.Pkg().Path()]
	if pkg == nil && r.loader != nil {
		pkg = r.loader.Cached(fn.Pkg().Path())
	}
	if pkg != nil {
		for _, f := range pkg.Files {
			if fn.Pos() < f.Pos() || fn.Pos() > f.End() {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn.Pos() >= fd.Pos() && fn.Pos() <= fd.End() {
					ds = funcDirectives(fd)
					break
				}
			}
		}
	}
	r.memo[fn] = ds
	return ds
}
