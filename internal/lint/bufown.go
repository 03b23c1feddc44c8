package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Ownership states: what a tracked resource may be, on some path.
const (
	resOwned       Bits = 1 << iota // must be released or handed off
	resReleased                     // released: putBuf, or a tracer's Finish
	resTransferred                  // handed to another owner
)

// resource is one kind of value the ownership pass follows from its
// acquisition to a release or a hand-off. bufown and spanbalance are two
// resources over one transfer function, which treats both alike:
//
//   - assigning an owned value into a composite literal re-keys tracking to
//     the literal's field (newImportJob's `j := &importJob{trace: trace}`),
//     and a plain assignment moves it to the new path;
//   - returning it, sending it, storing it into a map or slice element, or
//     passing it to a hand-off parameter transfers it to a new owner;
//   - a deferred release counts on every path, including panic unwinds;
//   - a leak is an owned value, rooted in the function body or in an owns
//     directive's parameter, that may reach the exit.
type resource struct {
	inPackage func(p *Pass) bool
	skip      func(p *Pass, fd *ast.FuncDecl) bool
	acquires  func(p *Pass, e ast.Expr) bool

	// releases reports whether call is a release and returns the released
	// path; a nil path settles every value the function holds (a tracer's
	// Finish is keyed by job id, not by handle).
	releases func(p *Pass, call *ast.CallExpr) (path ast.Expr, ok bool)

	// allArgs makes every call argument a hand-off; otherwise only the
	// parameters a callee's //etlvirt:transfers directive names are.
	allArgs bool

	// checkUses replays the solved flow to report use after release, double
	// release and goroutine capture; otherwise only leaks are reported.
	checkUses bool

	leak string // leak message format: the path, the function name
}

// newBufown builds the bufown analyzer: flow-sensitive buffer-ownership
// checking for the recycled chunk buffers of the acquisition hot path.
//
// Invariant (PR 5, "Hot-path allocation discipline"): every buffer obtained
// from the chunk pool (getBuf) changes owner strictly forward through the
// pipeline — session → converter → writer → pool — and exactly one stage
// returns it (putBuf). The contract is declared with //etlvirt:owns and
// //etlvirt:transfers directives (see DESIGN.md) and checked over the
// control-flow graph:
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
	r := &resource{
		// Only packages that use the pool idiom have anything to check.
		inPackage: func(p *Pass) bool { return packageHasFunc(p, "getBuf") || packageHasFunc(p, "putBuf") },
		// The pool's own implementation is exempt.
		skip:     func(p *Pass, fd *ast.FuncDecl) bool { return fd.Name.Name == "getBuf" || fd.Name.Name == "putBuf" },
		acquires: func(p *Pass, e ast.Expr) bool { return isCallNamed(e, "getBuf") },
		releases: func(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
			if isCallNamed(call, "putBuf") && len(call.Args) == 1 {
				return call.Args[0], true
			}
			return nil, false
		},
		checkUses: true,
		leak:      "buffer %s from getBuf may reach a return without putBuf or an ownership transfer (pool leak) in %s",
	}
	return &Analyzer{
		Name: "bufown",
		Doc:  "buffer-ownership dataflow: every getBuf is released or transferred exactly once on every path (//etlvirt:owns, //etlvirt:transfers)",
		Run:  func(p *Pass) { runOwnership(p, r) },
	}
}

// newSpanbalance builds the spanbalance analyzer: every Tracer.Start /
// Tracer.StartCtx must reach a Finish on all paths, or hand the trace off to
// an owner that will (return it, publish it into a registry, pass it to
// another function). The observability invariant behind it: an unfinished
// span pins its job's trace buffer in the tracer forever and the CDC SLO
// attribution report silently under-counts the job, so span leaks are data
// corruption for the ops plane, not just noise. Any call argument is a
// hand-off, but a method receiver (trace.Span(...)) is not: recording spans
// is not finishing them.
func newSpanbalance() *Analyzer {
	starts := func(p *Pass, e ast.Expr) bool {
		return isTracerCall(p, e, "Start") || isTracerCall(p, e, "StartCtx")
	}
	r := &resource{
		inPackage: func(p *Pass) bool { return p.Info != nil },
		// Only bodies that start a span need the solver.
		skip: func(p *Pass, fd *ast.FuncDecl) bool {
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				found = found || ok && starts(p, e)
				return !found
			})
			return !found
		},
		acquires: starts,
		releases: func(p *Pass, call *ast.CallExpr) (ast.Expr, bool) { return nil, isTracerCall(p, call, "Finish") },
		allArgs:  true,
		leak:     "trace %s may reach a return without Finish or a hand-off in %s (leaked span pins the job's trace buffer)",
	}
	return &Analyzer{
		Name: "spanbalance",
		Doc:  "trace spans started with Tracer.Start/StartCtx must reach Finish or an ownership hand-off on every path",
		Run:  func(p *Pass) { runOwnership(p, r) },
	}
}

// ownPass carries one function's analysis state.
type ownPass struct {
	p         *Pass
	r         *resource
	body      *ast.BlockStmt
	ownsField map[types.Object]bool // struct fields marked //etlvirt:owns
	checked   map[string]bool       // keys leak-checked at exit
}

func runOwnership(p *Pass, r *resource) {
	if !r.inPackage(p) {
		return
	}
	ownsField := collectOwnsFields(p)
	p.forEachFuncBody(func(file *ast.File, fd *ast.FuncDecl, body *ast.BlockStmt) {
		if r.skip(p, fd) {
			return
		}
		op := &ownPass{p: p, r: r, body: body, ownsField: ownsField, checked: make(map[string]bool)}
		seed := State{}
		for _, d := range funcDirectives(fd) {
			if d.Verb != "owns" {
				continue
			}
			for _, arg := range d.Args {
				if key, ok := op.seedKey(fd, arg); ok {
					seed[key] = Fact{Bits: resOwned, Origin: fd.Name}
					op.checked[key] = true
				}
			}
		}
		g := BuildCFG(body)
		transfer := func(n ast.Node, st State) { op.transfer(n, st, nil) }
		in := Flow(g, seed, transfer)
		if r.checkUses {
			// Replay each block from its solved in-state, reporting violations.
			for _, b := range g.Blocks {
				st := in[b].clone()
				for _, n := range b.Nodes {
					op.transfer(n, st, func(at ast.Node, format string, args ...any) {
						p.ReportWitness(at, g.PathWitness(p.Fset, b, at), nil, format, args...)
					})
				}
			}
		}
		exit := ExitState(g, in, transfer)
		keys := make([]string, 0, len(exit))
		for key := range exit {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		reported := make(map[ast.Node]bool)
		for _, key := range keys {
			f := exit[key]
			at := orNode(f.Origin, fd.Name)
			if f.Bits&resOwned == 0 || !op.checked[key] || reported[at] {
				continue
			}
			reported[at] = true
			p.ReportWitness(at, g.PathWitness(p.Fset, g.Exit, nil), nil, r.leak, keyDisplay(key), fd.Name.Name)
		}
	})
}

// seedKey resolves an owns-directive argument ("m.Payload" or "buf") to a
// state key rooted at a parameter or receiver of fd.
func (op *ownPass) seedKey(fd *ast.FuncDecl, arg string) (string, bool) {
	root, rest := arg, ""
	for i := 0; i < len(arg); i++ {
		if arg[i] == '.' {
			root, rest = arg[:i], arg[i:]
			break
		}
	}
	obj := op.p.funcParamObj(fd, root)
	if obj == nil {
		return "", false
	}
	return keyFor(root, obj) + rest, true
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

// transfer is the ownership transfer function. When check is non-nil the
// pass is in the reporting replay and violations are reported through it.
func (op *ownPass) transfer(n ast.Node, st State, check func(ast.Node, string, ...any)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// RHS uses are checked before LHS kills.
		for _, rhs := range n.Rhs {
			op.expr(rhs, st, check)
		}
		for i, lhs := range n.Lhs {
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			}
			op.assign(lhs, rhs, st, check)
		}

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					op.expr(v, st, check)
					if len(vs.Values) == len(vs.Names) {
						op.assign(vs.Names[i], v, st, check)
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
		if t := op.p.TypeOf(n.X); t != nil {
			_, fromChan = t.Underlying().(*types.Chan)
		}
		for _, v := range []ast.Expr{n.Key, n.Value} {
			if v == nil {
				continue
			}
			if key, _, ok := op.p.PathKey(v); ok {
				killPrefix(st, key)
				if fromChan {
					op.seedOwnedFields(v, key, n, st)
				}
			}
		}

	case *ast.SendStmt:
		op.expr(n.Chan, st, check)
		op.handOff(n.Value, st, check)

	case *ast.GoStmt:
		// Arguments are evaluated now.
		op.args(n.Call, st, check)
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && check != nil {
			op.checkGoroutineCapture(lit, st, check)
		}

	case *ast.DeferStmt:
		// The deferred call runs at exit; ExitState applies n.Call there.
		// Evaluate arguments for use checks only.
		for _, a := range n.Call.Args {
			op.expr(a, st, check)
		}

	case *ast.ReturnStmt:
		// Returning a value hands it to the caller.
		for _, r := range n.Results {
			op.handOff(r, st, check)
		}

	case ast.Expr:
		op.expr(n, st, check)

	case ast.Stmt:
		// Any other statement: check embedded expressions generically.
		ast.Inspect(n, func(c ast.Node) bool {
			if e, ok := c.(ast.Expr); ok {
				op.expr(e, st, check)
				return false
			}
			return true
		})
	}
}

// assign applies lhs = rhs after rhs's uses were checked (rhs is nil when
// the right-hand side is one multi-value expression).
func (op *ownPass) assign(lhs, rhs ast.Expr, st State, check func(ast.Node, string, ...any)) {
	key, root, ok := op.p.PathKey(lhs)
	if !ok {
		op.expr(lhs, st, check)
		if _, elem := ast.Unparen(lhs).(*ast.IndexExpr); elem && rhs != nil {
			// A map or slice element: the container owns what is stored in it.
			op.handOff(rhs, st, nil)
		}
		return
	}
	// Assigning over a tracked key kills its old state and any sub-paths.
	killPrefix(st, key)
	if rhs == nil {
		return
	}
	_, isDeref := ast.Unparen(lhs).(*ast.StarExpr)
	local := isBodyLocal(root, op.body) && !isDeref
	if op.r.acquires(op.p, rhs) {
		if local {
			st[key] = Fact{Bits: resOwned, Origin: rhs}
			op.checked[key] = true
		} else {
			// Stored into a field, or through a pointer (`*dst = getBuf(...)`
			// where dst aims at a struct field): the pointee's owner holds it.
			st[key] = Fact{Bits: resTransferred, Origin: rhs}
		}
		return
	}
	move := func(dst string, src ast.Expr) {
		srcKey, _, ok := op.p.PathKey(src)
		if f, tracked := st[srcKey]; ok && tracked && f.Bits&resOwned != 0 {
			// Ownership leaves the old location either way.
			st[srcKey] = Fact{Bits: resTransferred, Origin: f.Origin}
			if local {
				st[dst] = Fact{Bits: resOwned, Origin: f.Origin}
				op.checked[dst] = true
			}
		}
	}
	if lit := compositeLit(rhs); lit != nil {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					move(key+"."+id.Name, kv.Value)
				}
			}
		}
		return
	}
	move(key, rhs)
}

// expr walks one expression: release calls and hand-off arguments mutate
// state; any other mention of a tracked path is a use, checked against
// released/transferred.
func (op *ownPass) expr(e ast.Expr, st State, check func(ast.Node, string, ...any)) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if path, ok := op.r.releases(op.p, e); ok {
			if path == nil {
				for k, f := range st {
					f.Bits &^= resOwned
					st[k] = f
				}
				return
			}
			key, _, ok := op.p.PathKey(path)
			if !ok {
				op.expr(path, st, check)
				return
			}
			f := st[key]
			if check != nil && f.Bits&resReleased != 0 {
				check(e, "double putBuf of %s: the buffer may already be back in the pool", pathString(path))
			}
			if check != nil && f.Bits&resTransferred != 0 {
				check(e, "putBuf of %s after its ownership was transferred; the new owner releases it", pathString(path))
			}
			st[key] = Fact{Bits: resReleased, Origin: e}
			return
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			op.expr(sel.X, st, check) // a receiver is a use, never a hand-off
		} else {
			op.expr(e.Fun, st, check)
		}
		op.args(e, st, check)

	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		if key, _, ok := op.p.PathKey(e); ok {
			if f, tracked := st[key]; tracked && check != nil {
				if f.Bits&resReleased != 0 {
					check(e, "use of %s after putBuf: the pool may have recycled it into another chunk", keyDisplay(key))
				} else if f.Bits&resTransferred != 0 && f.Bits&resOwned == 0 {
					check(e, "use of %s after its ownership was transferred to another stage", keyDisplay(key))
				}
			}
			return
		}
		if se, ok := e.(*ast.SelectorExpr); ok {
			op.expr(se.X, st, check)
		}
		if se, ok := e.(*ast.StarExpr); ok {
			op.expr(se.X, st, check)
		}

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			op.expr(el, st, check)
		}

	case *ast.BinaryExpr:
		op.expr(e.X, st, check)
		op.expr(e.Y, st, check)
	case *ast.UnaryExpr:
		op.expr(e.X, st, check)
	case *ast.ParenExpr:
		op.expr(e.X, st, check)
	case *ast.IndexExpr:
		op.expr(e.X, st, check)
		op.expr(e.Index, st, check)
	case *ast.SliceExpr:
		op.expr(e.X, st, check)
	case *ast.TypeAssertExpr:
		op.expr(e.X, st, check)
	case *ast.FuncLit:
		// A closure runs later, or now; the releases and hand-offs its calls
		// make count (a deferred or callback Finish settles the span), but
		// its uses are not checked.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				op.expr(call, st, nil)
				return false
			}
			return true
		})
	}
}

// args evaluates a call's arguments: hand-offs for the parameters the
// resource or the callee's //etlvirt:transfers directive names, uses for
// the rest.
func (op *ownPass) args(call *ast.CallExpr, st State, check func(ast.Node, string, ...any)) {
	var transfers map[string]bool
	var params []string
	if fn := op.p.calleeFunc(call); fn != nil && !op.r.allArgs {
		for _, d := range op.p.FuncDirectives(fn) {
			if d.Verb != "transfers" {
				continue
			}
			if transfers == nil {
				transfers = make(map[string]bool)
			}
			for _, a := range d.Args {
				transfers[a] = true
			}
		}
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				params = append(params, sig.Params().At(i).Name())
			}
		}
	}
	for i, a := range call.Args {
		if op.r.allArgs || i < len(params) && transfers[params[i]] {
			op.handOff(a, st, check)
			continue
		}
		op.expr(a, st, check)
	}
}

// handOff marks every tracked value inside e — directly, under a path
// (returning j hands off j.trace), or in a composite-literal field — as
// transferred to a new owner. An untracked value keeps no state: a context
// or any other value that never came from an acquisition owns nothing, so
// using it again after the hand-off is no violation.
func (op *ownPass) handOff(e ast.Expr, st State, check func(ast.Node, string, ...any)) {
	if lit := compositeLit(e); lit != nil {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			op.handOff(el, st, check)
		}
		return
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	key, _, ok := op.p.PathKey(e)
	if !ok {
		op.expr(e, st, check)
		return
	}
	f, tracked := st[key]
	if check != nil && f.Bits&resReleased != 0 {
		check(e, "handing off %s after putBuf: the receiver would own a recycled buffer", keyDisplay(key))
	}
	for k, sub := range st {
		if k != key && hasPathPrefix(k, key) {
			st[k] = Fact{Bits: resTransferred, Origin: sub.Origin}
		}
	}
	if tracked {
		st[key] = Fact{Bits: resTransferred, Origin: f.Origin}
	}
}

func orNode(a ast.Node, b ast.Node) ast.Node {
	if a != nil {
		return a
	}
	return b
}

// compositeLit unwraps e to a composite literal (through & and parens).
func compositeLit(e ast.Expr) *ast.CompositeLit {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CompositeLit:
			return x
		default:
			return nil
		}
	}
}

// checkGoroutineCapture reports owned buffers captured free by a go literal.
func (op *ownPass) checkGoroutineCapture(lit *ast.FuncLit, st State, check func(ast.Node, string, ...any)) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		key, root, ok := op.p.PathKey(e)
		if !ok {
			return true
		}
		// Only free variables matter; a redeclaration inside the literal
		// would have a different object position.
		if f, tracked := st[key]; tracked && f.Bits&resOwned != 0 && root != nil && root.Pos() < lit.Pos() {
			check(e, "owned buffer %s captured by goroutine without an ownership transfer (//etlvirt:transfers)", keyDisplay(key))
		}
		return false
	})
}

// seedOwnedFields marks v.field owned for every //etlvirt:owns field of v's
// struct type.
func (op *ownPass) seedOwnedFields(v ast.Expr, key string, origin ast.Node, st State) {
	t := op.p.TypeOf(v)
	if t == nil {
		return
	}
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); op.ownsField[f] {
			st[key+"."+f.Name()] = Fact{Bits: resOwned, Origin: origin}
			op.checked[key+"."+f.Name()] = true
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
					if d.Verb != "owns" || p.Info == nil {
						continue
					}
					for _, id := range field.Names {
						if obj := p.Info.Defs[id]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// isCallNamed matches a plain call to the package function name.
func isCallNamed(e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name
}

// isTracerCall matches a method call of the given name on a value whose
// named type is called Tracer (the obs tracer, or a fixture double).
func isTracerCall(p *Pass, e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	n := named(p.TypeOf(sel.X))
	return n != nil && n.Obj().Name() == "Tracer"
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
	for k := range st {
		if k == key || hasPathPrefix(k, key) {
			delete(st, k)
		}
	}
}

// hasPathPrefix reports whether k is a strict sub-path of key.
func hasPathPrefix(k, key string) bool {
	return len(k) > len(key) && k[:len(key)] == key && (k[len(key)] == '.' || k[len(key)] == ')')
}
