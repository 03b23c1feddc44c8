package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// newWirekind builds the wirekind analyzer: every DWP frame kind must be
// wired through all of its dispatch surfaces. Adding a Kind constant is a
// four-site change — codec (newMessage), server dispatch (the session
// type-switch), client handling, and the diagnostic label table — and the
// compiler checks none of them: a missed arm is a runtime "no message for
// kind" failure or a silent drop the first time a peer sends the frame.
//
// Surfaces are declared, not guessed, with //etlvirt:dispatch directives:
//
//	//etlvirt:dispatch codec            on the kind-switch that allocates messages
//	//etlvirt:dispatch server [-KindX]  on the server's message type-switch;
//	                                    -KindX exempts kinds handled elsewhere
//	//etlvirt:dispatch client [-KindX]  anywhere in the client package: every
//	                                    server->client message type must be
//	                                    referenced in that package
//
// The label surface (Kind.String's positional name table) is found
// automatically from the Kind type's String method. Directions come from the
// constants' trailing comments ("client -> server", "server -> client"),
// which are already the protocol documentation.
func newWirekind() *Analyzer {
	a := &Analyzer{
		Name: "wirekind",
		Doc:  "every wire kind constant must be covered by the codec, server dispatch, client handling, and label surfaces (//etlvirt:dispatch)",
		// Not cacheable: coverage spans the wire, core, and client packages.
	}
	st := &wirekindState{
		typeKind: make(map[string]string),
		labels:   make(map[string]labelTable),
	}
	a.Run = func(p *Pass) { st.run(p) }
	a.End = func(report func(Diagnostic)) { st.end(report) }
	return a
}

// wireKindConst is one declared kind constant.
type wireKindConst struct {
	name     string
	pkg      string // package path declaring the constant
	value    int64
	toServer bool // "client -> server" per the trailing comment
	toClient bool // "server -> client"
	pos      token.Position
}

type dispatchSurface struct {
	covered map[string]bool // kind names (codec) or message type names (server)
	exempt  map[string]bool // -KindX tokens
	pos     token.Position
}

type wirekindState struct {
	kinds    []wireKindConst
	typeKind map[string]string // message type name -> kind constant name

	codec        *dispatchSurface
	codecKindPkg string // package path of the codec switch tag's Kind type
	server       *dispatchSurface

	client    *dispatchSurface // covered holds referenced type names
	clientPkg string
	// labels maps a package path to its Kind.String name table, so an
	// unrelated Kind type in another package (e.g. column-type kinds) is
	// checked against its own table, not the wire protocol's.
	labels map[string]labelTable
}

type labelTable struct {
	count int
	pos   token.Position
}

func (st *wirekindState) run(p *Pass) {
	st.collectKinds(p)
	st.collectKindMethods(p)
	st.collectLabelTable(p)
	st.collectDispatch(p)
}

// collectKinds records exported constants of a type named Kind, with their
// direction comments.
func (st *wirekindState) collectKinds(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				dir := ""
				if vs.Comment != nil {
					dir = vs.Comment.Text()
				}
				for _, id := range vs.Names {
					c, ok := p.Info.Defs[id].(*types.Const)
					if !ok || namedTypeName(c.Type()) != "Kind" {
						continue
					}
					if !strings.HasPrefix(id.Name, "Kind") || id.Name == "KindInvalid" {
						continue
					}
					v, ok := constant.Int64Val(c.Val())
					if !ok {
						continue
					}
					st.kinds = append(st.kinds, wireKindConst{
						name:     id.Name,
						pkg:      p.Path,
						value:    v,
						toServer: strings.Contains(dir, "client -> server"),
						toClient: strings.Contains(dir, "server -> client"),
						pos:      p.Fset.Position(id.Pos()),
					})
				}
			}
		}
	}
}

// collectKindMethods maps message type names to kind constants via the
// `func (*T) Kind() Kind { return KindT }` convention.
func (st *wirekindState) collectKindMethods(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Kind" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if len(fd.Body.List) != 1 {
				continue
			}
			ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				continue
			}
			kindID, ok := ast.Unparen(ret.Results[0]).(*ast.Ident)
			if !ok {
				continue
			}
			recv := fd.Recv.List[0].Type
			if se, isStar := recv.(*ast.StarExpr); isStar {
				recv = se.X
			}
			if tid, isIdent := recv.(*ast.Ident); isIdent {
				st.typeKind[tid.Name] = kindID.Name
			}
		}
	}
}

// collectLabelTable finds Kind.String's positional name array.
func (st *wirekindState) collectLabelTable(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "String" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if se, isStar := recv.(*ast.StarExpr); isStar {
				recv = se.X
			}
			tid, isIdent := recv.(*ast.Ident)
			if !isIdent || tid.Name != "Kind" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if _, isArr := lit.Type.(*ast.ArrayType); !isArr {
					return true
				}
				st.labels[p.Path] = labelTable{count: len(lit.Elts), pos: p.Fset.Position(lit.Pos())}
				return false
			})
		}
	}
}

// collectDispatch finds //etlvirt:dispatch directives and the switch
// statements they annotate.
func (st *wirekindState) collectDispatch(p *Pass) {
	type pending struct {
		role   string
		exempt map[string]bool
		file   string
		line   int
		pos    token.Position
	}
	var pendings []pending
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok || d.Verb != "dispatch" || len(d.Args) == 0 {
					continue
				}
				exempt := make(map[string]bool)
				for _, a := range d.Args[1:] {
					exempt[strings.TrimPrefix(a, "-")] = true
				}
				pos := p.Fset.Position(c.Pos())
				role := d.Args[0]
				if role == "client" {
					st.client = &dispatchSurface{covered: make(map[string]bool), exempt: exempt, pos: pos}
					st.clientPkg = p.Path
					continue
				}
				pendings = append(pendings, pending{role: role, exempt: exempt, file: pos.Filename, line: pos.Line, pos: pos})
			}
		}
	}
	if st.client != nil && p.Path == st.clientPkg {
		// Every named type referenced in the client package counts as
		// handled there: construction, type-switch cases, and field access
		// all resolve through a TypeName use. A reference to the Kind
		// constant itself (Expect(wire.KindLoadDone)) also counts — ack-only
		// frames are consumed by kind without naming the message type.
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := p.Uses(id).(type) {
				case *types.TypeName:
					st.client.covered[obj.Name()] = true
				case *types.Const:
					if namedTypeName(obj.Type()) == "Kind" {
						st.client.covered[obj.Name()] = true
					}
				}
				return true
			})
		}
	}
	if len(pendings) == 0 {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var covered []string
			tagPkg := ""
			switch sw := n.(type) {
			case *ast.SwitchStmt:
				if sw.Tag != nil && p.Info != nil {
					if named, ok := p.Info.TypeOf(sw.Tag).(*types.Named); ok && named.Obj().Pkg() != nil {
						tagPkg = named.Obj().Pkg().Path()
					}
				}
				for _, c := range sw.Body.List {
					cc := c.(*ast.CaseClause)
					for _, e := range cc.List {
						if id, ok := ast.Unparen(e).(*ast.Ident); ok {
							covered = append(covered, id.Name)
						} else if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
							covered = append(covered, sel.Sel.Name)
						}
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range sw.Body.List {
					cc := c.(*ast.CaseClause)
					for _, e := range cc.List {
						if name := caseTypeName(e); name != "" {
							covered = append(covered, name)
						}
					}
				}
			default:
				return true
			}
			pos := p.Fset.Position(n.Pos())
			for _, pd := range pendings {
				if pd.file != pos.Filename || (pos.Line != pd.line && pos.Line != pd.line+1) {
					continue
				}
				surf := &dispatchSurface{covered: make(map[string]bool), exempt: pd.exempt, pos: pd.pos}
				for _, name := range covered {
					surf.covered[name] = true
				}
				switch pd.role {
				case "codec":
					st.codec = surf
					st.codecKindPkg = tagPkg
				case "server":
					st.server = surf
				}
			}
			return true
		})
	}
}

// caseTypeName extracts the named type of a type-switch case expression
// (*wire.Logoff -> "Logoff").
func caseTypeName(e ast.Expr) string {
	e = ast.Unparen(e)
	if se, ok := e.(*ast.StarExpr); ok {
		e = se.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// end cross-references every kind against every declared surface.
func (st *wirekindState) end(report func(Diagnostic)) {
	// kindType inverts typeKind for server/client coverage.
	kindType := make(map[string]string, len(st.typeKind))
	for typ, kind := range st.typeKind {
		kindType[kind] = typ
	}
	kinds := append([]wireKindConst(nil), st.kinds...)
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].value < kinds[j].value })
	for _, k := range kinds {
		typ := kindType[k.name]
		// Protocol-surface checks apply only to the Kind type the codec
		// switch dispatches on; unrelated Kind enums in other packages keep
		// their (per-package) label check but nothing else.
		protocol := st.codecKindPkg == "" || k.pkg == st.codecKindPkg
		if st.codec != nil && protocol && !st.codec.covered[k.name] && !st.codec.exempt[k.name] {
			report(Diagnostic{
				Pos: k.pos, Analyzer: "wirekind",
				Message: k.name + " has no arm in the codec dispatch switch (" + st.codec.pos.String() + "); decoding this kind will fail at runtime",
				Related: []token.Position{st.codec.pos},
			})
		}
		if lt, ok := st.labels[k.pkg]; ok && k.value >= int64(lt.count) {
			report(Diagnostic{
				Pos: k.pos, Analyzer: "wirekind",
				Message: k.name + " has no entry in Kind.String's name table (" + lt.pos.String() + "); traces will show a numeric kind",
				Related: []token.Position{lt.pos},
			})
		}
		if st.server != nil && protocol && k.toServer && typ != "" && !st.server.covered[typ] && !st.server.exempt[k.name] {
			report(Diagnostic{
				Pos: k.pos, Analyzer: "wirekind",
				Message: k.name + " is client->server but *" + typ + " has no case in the server dispatch switch (" + st.server.pos.String() + "); add one or exempt it with -" + k.name,
				Related: []token.Position{st.server.pos},
			})
		}
		if st.client != nil && protocol && k.toClient && typ != "" && !st.client.covered[typ] &&
			!st.client.covered[k.name] && !st.client.exempt[k.name] {
			report(Diagnostic{
				Pos: k.pos, Analyzer: "wirekind",
				Message: k.name + " is server->client but " + typ + " is never referenced in the client package " + st.clientPkg + "; handle it or exempt it with -" + k.name,
			})
		}
	}
}
