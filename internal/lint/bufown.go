package lint

import (
	"go/ast"
	"go/types"
)

// bufown bit states: what a tracked buffer may be, on some path.
const (
	bufOwned       Bits = 1 << iota // holds pool ownership; must be released or transferred
	bufReleased                     // returned to the pool via putBuf
	bufTransferred                  // ownership handed to another stage
)

// newBufown builds the bufown analyzer: flow-sensitive buffer-ownership
// checking for the recycled chunk buffers of the acquisition hot path.
//
// Invariant (PR 5, "Hot-path allocation discipline"): every buffer obtained
// from the chunk pool (getBuf) changes owner strictly forward through the
// pipeline — session → converter → writer → pool — and exactly one stage
// returns it (putBuf). The compiler cannot see this contract; until this
// analyzer, it was enforced only by hand-off comments. The contract is now
// declared with //etlvirt:owns / //etlvirt:transfers directives (see
// DESIGN.md) and checked over the control-flow graph:
//
//   - use-after-put: reading a buffer that may already be back in the pool
//     (another goroutine may have recycled and be appending into it);
//   - double-put: releasing the same buffer twice poisons the pool with
//     aliased slices;
//   - put-after-transfer: releasing a buffer another stage now owns;
//   - goroutine escape: an owned buffer captured by a `go` literal without
//     a transfer annotation outlives the owner's frame unaccountably;
//   - leak: a path to return on which an owned buffer is neither released
//     nor transferred (the pool silently shrinks under error paths).
func newBufown() *Analyzer {
	return &Analyzer{
		Name: "bufown",
		Doc:  "buffer-ownership dataflow: every getBuf is released or transferred exactly once on every path (//etlvirt:owns, //etlvirt:transfers)",
		Run:  runBufown,
	}
}

// bufownPass carries per-function analysis state.
type bufownPass struct {
	p         *Pass
	body      *ast.BlockStmt
	ownsField map[types.Object]bool // struct fields marked //etlvirt:owns
	localRoot map[string]bool       // keys whose root is body-local (leak-checked)
	ownsParam map[string]bool       // keys seeded by a function-level owns directive (leak-checked)
}

func runBufown(p *Pass) {
	// Only packages that use the pool idiom have anything to check: the
	// analyzer keys off functions named getBuf/putBuf in the package.
	if !packageHasFunc(p, "getBuf") && !packageHasFunc(p, "putBuf") {
		return
	}
	ownsField := collectOwnsFields(p)
	p.forEachFuncBody(func(file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt) {
		if fd.Name.Name == "getBuf" || fd.Name.Name == "putBuf" {
			return // the pool's own implementation is exempt
		}
		bp := &bufownPass{
			p: p, body: body,
			ownsField: ownsField,
			localRoot: make(map[string]bool),
			ownsParam: make(map[string]bool),
		}
		seed := State{}
		for _, d := range funcDirectives(fd) {
			if d.Verb != "owns" || len(d.Args) == 0 {
				continue
			}
			for _, arg := range d.Args {
				if key, ok := bp.seedKey(fd, arg); ok {
					seed[key] = Fact{Bits: bufOwned, Origin: fd.Name}
					bp.ownsParam[key] = true
				}
			}
		}
		g := BuildCFG(body)
		transfer := func(n ast.Node, st State) { bp.transfer(n, st, nil) }
		in := flowFrom(g, seed, transfer)
		// Replay each block from its solved in-state, reporting violations.
		for _, b := range g.Blocks {
			st := in[b].clone()
			for _, n := range b.Nodes {
				bp.transfer(n, st, func(at ast.Node, format string, args ...any) {
					w := g.PathWitness(p.Fset, b, at)
					p.ReportWitness(at, w, nil, format, args...)
				})
			}
		}
		// Leak check: anything still possibly owned at exit, rooted in a
		// body-local or an owns-directive parameter, escaped accounting.
		exit := ExitState(g, in, func(n ast.Node, st State) { bp.transfer(n, st, nil) })
		for key, f := range exit {
			if f.Bits&bufOwned == 0 {
				continue
			}
			if !bp.localRoot[key] && !bp.ownsParam[key] {
				continue
			}
			w := g.PathWitness(p.Fset, g.Exit, nil)
			at := f.Origin
			if at == nil {
				at = fd.Name
			}
			p.ReportWitness(at, w, nil,
				"buffer %s from getBuf may reach a return without putBuf or an ownership transfer (pool leak) in %s",
				keyDisplay(key), fd.Name.Name)
		}
	})
}

// flowFrom is Flow with an explicit entry in-state (owns-directive seeds).
func flowFrom(g *CFG, entry State, transfer func(ast.Node, State)) map[*Block]State {
	// As in Flow, every block is seeded so each is processed at least once.
	in := make(map[*Block]State, len(g.Blocks))
	work := make([]*Block, 0, len(g.Blocks))
	queued := make(map[*Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = State{}
		work = append(work, b)
		queued[b] = true
	}
	in[g.Entry] = entry.clone()
	steps := 0
	limit := 64 * (len(g.Blocks) + 1)
	for len(work) > 0 && steps < limit {
		steps++
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := in[b].clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		for _, s := range b.Succs {
			if in[s].join(out) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// seedKey resolves an owns-directive argument ("m.Payload" or "buf") to a
// state key rooted at a parameter or receiver of fd.
func (bp *bufownPass) seedKey(fd *ast.FuncDecl, arg string) (string, bool) {
	root := arg
	rest := ""
	for i := 0; i < len(arg); i++ {
		if arg[i] == '.' {
			root, rest = arg[:i], arg[i:]
			break
		}
	}
	obj := bp.p.funcParamObj(fd, root)
	if obj == nil {
		return "", false
	}
	return keyFor(root, obj) + rest, true
}

func keyFor(name string, obj types.Object) string {
	return name + "#" + itoa(int(obj.Pos()))
}

// keyDisplay strips the disambiguating object positions from a state key.
func keyDisplay(key string) string {
	out := make([]byte, 0, len(key))
	skip := false
	for i := 0; i < len(key); i++ {
		switch {
		case key[i] == '#':
			skip = true
		case skip && (key[i] < '0' || key[i] > '9'):
			skip = false
			out = append(out, key[i])
		case !skip:
			out = append(out, key[i])
		}
	}
	return string(out)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// transfer is the bufown transfer function. When check is non-nil the pass
// is in the reporting replay and violations are reported through it.
func (bp *bufownPass) transfer(n ast.Node, st State, check func(ast.Node, string, ...any)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// RHS uses are checked before LHS kills.
		for _, rhs := range n.Rhs {
			bp.expr(rhs, st, check)
		}
		for i, lhs := range n.Lhs {
			key, root, ok := bp.p.PathKey(lhs)
			if !ok {
				bp.expr(lhs, st, check)
				continue
			}
			// Assigning over a tracked key kills its old state and any
			// sub-paths.
			killPrefix(st, key)
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			}
			if rhs != nil && bp.isGetBuf(rhs) {
				_, isDeref := ast.Unparen(lhs).(*ast.StarExpr)
				if isBodyLocal(root, bp.body) && !isDeref {
					st[key] = Fact{Bits: bufOwned, Origin: n}
					bp.localRoot[key] = true
				} else {
					// Owned value stored into a field, or through a pointer
					// (`*dst = getBuf(...)` where dst aims at a struct
					// field): the pointee's owner holds it now.
					st[key] = Fact{Bits: bufTransferred, Origin: n}
				}
				continue
			}
			if rhs != nil {
				// Moving a tracked buffer between locations: x.f = buf.
				if srcKey, _, ok := bp.p.PathKey(rhs); ok {
					if f, tracked := st[srcKey]; tracked && f.Bits&bufOwned != 0 {
						if isBodyLocal(root, bp.body) {
							st[key] = Fact{Bits: bufOwned, Origin: f.Origin}
							bp.localRoot[key] = true
						}
						// Ownership left the old location either way.
						st[srcKey] = Fact{Bits: bufTransferred, Origin: f.Origin}
					}
				}
			}
		}

	case *ast.RangeStmt:
		// Per-iteration assignment: stale facts from the previous iteration
		// die, and a value received from a channel of a struct type with
		// //etlvirt:owns fields makes those fields owned — the receive IS
		// the ownership hand-off. Ranging a map or slice is mere iteration
		// (a debug view walking the live-job registry does not take the
		// jobs' buffers), so only channel ranges seed. A channel binds the
		// element to Key; maps and slices use Value.
		fromChan := false
		if bp.p.Info != nil {
			if t := bp.p.Info.TypeOf(n.X); t != nil {
				_, fromChan = t.Underlying().(*types.Chan)
			}
		}
		for _, v := range []ast.Expr{n.Key, n.Value} {
			if v == nil {
				continue
			}
			if key, _, ok := bp.p.PathKey(v); ok {
				killPrefix(st, key)
				if fromChan {
					bp.seedOwnedFields(v, key, n, st)
				}
			}
		}

	case *ast.ExprStmt:
		bp.expr(n.X, st, check)

	case *ast.SendStmt:
		bp.expr(n.Chan, st, check)
		// A channel send transfers ownership of any owned buffer the sent
		// value carries (directly, or inside a composite-literal field).
		bp.transferInto(n.Value, st, check)

	case *ast.GoStmt:
		// Arguments evaluated now.
		for _, a := range n.Call.Args {
			bp.expr(a, st, check)
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && check != nil {
			bp.checkGoroutineCapture(lit, st, check)
		}

	case *ast.DeferStmt:
		// The deferred call runs at exit; ExitState applies n.Call there.
		// Evaluate arguments for use checks only.
		for _, a := range n.Call.Args {
			bp.expr(a, st, check)
		}

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						bp.expr(v, st, check)
					}
				}
			}
		}

	case *ast.ReturnStmt:
		for _, r := range n.Results {
			// Returning a tracked buffer hands ownership to the caller.
			if key, _, ok := bp.p.PathKey(r); ok {
				if f, tracked := st[key]; tracked && f.Bits&bufOwned != 0 {
					st[key] = Fact{Bits: bufTransferred, Origin: f.Origin}
					continue
				}
			}
			bp.expr(r, st, check)
		}

	case *ast.IncDecStmt:
		bp.expr(n.X, st, check)

	case ast.Expr:
		bp.expr(n, st, check)

	case ast.Stmt:
		// Any other statement: check embedded expressions generically.
		ast.Inspect(n, func(c ast.Node) bool {
			if e, ok := c.(ast.Expr); ok {
				bp.expr(e, st, check)
				return false
			}
			return true
		})
	}
}

// expr walks one expression: putBuf/transfer calls mutate state; any other
// mention of a tracked path is a use, checked against released/transferred.
func (bp *bufownPass) expr(e ast.Expr, st State, check func(ast.Node, string, ...any)) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if bp.isPutBuf(e) && len(e.Args) == 1 {
			arg := e.Args[0]
			if key, _, ok := bp.p.PathKey(arg); ok {
				f := st[key]
				if check != nil && f.Bits&bufReleased != 0 {
					check(e, "double putBuf of %s: the buffer may already be back in the pool", pathString(arg))
				}
				if check != nil && f.Bits&bufTransferred != 0 {
					check(e, "putBuf of %s after its ownership was transferred; the new owner releases it", pathString(arg))
				}
				st[key] = Fact{Bits: bufReleased, Origin: e}
				return
			}
			bp.expr(arg, st, check)
			return
		}
		// A call to a //etlvirt:transfers function consumes the named
		// arguments' ownership.
		transfers := bp.transferParams(e)
		callee := ast.Unparen(e.Fun)
		if sel, ok := callee.(*ast.SelectorExpr); ok {
			bp.expr(sel.X, st, check)
		}
		sig := bp.calleeParams(e)
		for i, a := range e.Args {
			name := ""
			if sig != nil && i < len(sig) {
				name = sig[i]
			}
			if transfers[name] {
				bp.transferInto(a, st, check)
				continue
			}
			bp.expr(a, st, check)
		}

	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		if key, _, ok := bp.p.PathKey(e); ok {
			if f, tracked := st[key]; tracked && check != nil {
				if f.Bits&bufReleased != 0 {
					check(e, "use of %s after putBuf: the pool may have recycled it into another chunk", keyDisplay(key))
				} else if f.Bits&bufTransferred != 0 && f.Bits&bufOwned == 0 {
					check(e, "use of %s after its ownership was transferred to another stage", keyDisplay(key))
				}
			}
			return
		}
		if se, ok := e.(*ast.SelectorExpr); ok {
			bp.expr(se.X, st, check)
		}
		if se, ok := e.(*ast.StarExpr); ok {
			bp.expr(se.X, st, check)
		}

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				bp.expr(kv.Value, st, check)
				continue
			}
			bp.expr(el, st, check)
		}

	case *ast.BinaryExpr:
		bp.expr(e.X, st, check)
		bp.expr(e.Y, st, check)
	case *ast.UnaryExpr:
		bp.expr(e.X, st, check)
	case *ast.ParenExpr:
		bp.expr(e.X, st, check)
	case *ast.IndexExpr:
		bp.expr(e.X, st, check)
		bp.expr(e.Index, st, check)
	case *ast.SliceExpr:
		bp.expr(e.X, st, check)
	case *ast.TypeAssertExpr:
		bp.expr(e.X, st, check)
	case *ast.FuncLit:
		// Closure bodies execute later (or synchronously for immediate
		// calls); conservatively treat captured tracked values as uses only.
	}
}

// transferInto marks every tracked buffer inside e (directly or via
// composite-literal fields) as transferred.
func (bp *bufownPass) transferInto(e ast.Expr, st State, check func(ast.Node, string, ...any)) {
	switch e := e.(type) {
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				bp.transferInto(kv.Value, st, check)
				continue
			}
			bp.transferInto(el, st, check)
		}
	case *ast.UnaryExpr:
		bp.transferInto(e.X, st, check)
	case *ast.ParenExpr:
		bp.transferInto(e.X, st, check)
	default:
		if key, _, ok := bp.p.PathKey(e); ok {
			f := st[key]
			if check != nil && f.Bits&bufReleased != 0 {
				check(e, "handing off %s after putBuf: the receiver would own a recycled buffer", keyDisplay(key))
			}
			st[key] = Fact{Bits: bufTransferred, Origin: orNode(f.Origin, e)}
			return
		}
		bp.expr(e, st, check)
	}
}

func orNode(a ast.Node, b ast.Node) ast.Node {
	if a != nil {
		return a
	}
	return b
}

// checkGoroutineCapture reports owned buffers captured free by a go literal.
func (bp *bufownPass) checkGoroutineCapture(lit *ast.FuncLit, st State, check func(ast.Node, string, ...any)) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		key, root, ok := bp.p.PathKey(e)
		if !ok {
			return true
		}
		if f, tracked := st[key]; tracked && f.Bits&bufOwned != 0 {
			// Only free variables matter; a redeclaration inside the literal
			// would have a different object position.
			if root != nil && root.Pos() < lit.Pos() {
				check(e, "owned buffer %s captured by goroutine without an ownership transfer (//etlvirt:transfers)", keyDisplay(key))
			}
		}
		return false
	})
}

// seedOwnedFields marks v.field owned for every //etlvirt:owns field of v's
// struct type.
func (bp *bufownPass) seedOwnedFields(v ast.Expr, key string, origin ast.Node, st State) {
	t := bp.p.TypeOf(v)
	if t == nil {
		return
	}
	for {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if bp.ownsField[f] {
			st[key+"."+f.Name()] = Fact{Bits: bufOwned, Origin: origin}
			bp.localRoot[key+"."+f.Name()] = true
		}
	}
}

// collectOwnsFields finds struct fields annotated //etlvirt:owns.
func collectOwnsFields(p *Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stn, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range stn.Fields.List {
				for _, d := range fieldDirectives(field) {
					if d.Verb != "owns" {
						continue
					}
					for _, id := range field.Names {
						if p.Info != nil {
							if obj := p.Info.Defs[id]; obj != nil {
								out[obj] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// transferParams returns the set of parameter names the callee's
// //etlvirt:transfers directives name.
func (bp *bufownPass) transferParams(call *ast.CallExpr) map[string]bool {
	fn := bp.p.calleeFunc(call)
	if fn == nil {
		return nil
	}
	var out map[string]bool
	for _, d := range bp.p.FuncDirectives(fn) {
		if d.Verb != "transfers" {
			continue
		}
		if out == nil {
			out = make(map[string]bool)
		}
		for _, a := range d.Args {
			out[a] = true
		}
	}
	return out
}

// calleeParams returns the callee's parameter names, positionally.
func (bp *bufownPass) calleeParams(call *ast.CallExpr) []string {
	fn := bp.p.calleeFunc(call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]string, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		out[i] = sig.Params().At(i).Name()
	}
	return out
}

// isGetBuf / isPutBuf match plain calls to the package's pool functions.
func (bp *bufownPass) isGetBuf(e ast.Expr) bool { return isCallNamed(e, "getBuf") }
func (bp *bufownPass) isPutBuf(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	return ok && isCallNamed(call, "putBuf")
}

func isCallNamed(e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name
}

// packageHasFunc reports whether the package declares a function with the
// given name.
func packageHasFunc(p *Pass, name string) bool {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

// killPrefix removes key and every sub-path key ("res" kills "res.CSV").
func killPrefix(st State, key string) {
	delete(st, key)
	for k := range st {
		if len(k) > len(key) && k[:len(key)] == key && (k[len(key)] == '.' || k[len(key)] == ')') {
			delete(st, k)
		}
	}
}
