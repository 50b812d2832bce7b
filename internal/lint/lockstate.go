package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// stringSet is a small set of lock-class or effect names. A nil set is
// the walker's "all paths terminated" sentinel; live states are always
// non-nil, even when empty.
type stringSet map[string]bool

func newSet(elems ...string) stringSet {
	s := make(stringSet, len(elems))
	for _, e := range elems {
		s[e] = true
	}
	return s
}

func (s stringSet) clone() stringSet {
	c := make(stringSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s stringSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// joinStates merges two branch outcomes: a terminated (nil) branch drops
// out; two live branches union their held sets — over-approximating so a
// lock held on either path is treated as held after the merge.
func joinStates(a, b stringSet) stringSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for k := range b {
		out[k] = true
	}
	return out
}

// lockModel is one package's lock-discipline configuration, discovered
// from //tcache: annotations, plus the fixpoint call summaries derived
// from it.
type lockModel struct {
	pass *Pass
	// classOf maps annotated mutex fields to their lock-class name.
	classOf map[types.Object]string
	// orderOK[a][b] records a declared `//tcache:lockorder a < b`:
	// b may be acquired while a is held.
	orderOK map[string]map[string]bool
	// holds maps //tcache:holds-annotated functions to the classes their
	// callers must hold.
	holds map[*types.Func][]string
	// hookTypes are named func types annotated //tcache:hook: values of
	// these run user code and must never be invoked under a classed lock.
	hookTypes map[*types.TypeName]bool

	funcs []funcInfo
	// summaries: classes each function may acquire on behalf of its
	// caller (its own holds classes excluded — reacquiring a lock the
	// caller lent it is the caller's lock, not a new acquisition).
	summaries map[*types.Func]stringSet
	// effects: blocking/visible side effects each function may perform,
	// transitively through same-package calls.
	effects map[*types.Func]stringSet
}

type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
}

// buildLockModel discovers annotations across the pass's files and
// computes the call summaries.
func buildLockModel(pass *Pass) *lockModel {
	m := &lockModel{
		pass:      pass,
		classOf:   make(map[types.Object]string),
		orderOK:   make(map[string]map[string]bool),
		holds:     make(map[*types.Func][]string),
		hookTypes: make(map[*types.TypeName]bool),
		summaries: make(map[*types.Func]stringSet),
		effects:   make(map[*types.Func]stringSet),
	}
	for _, f := range pass.Files {
		m.discoverFile(f)
	}
	m.computeSummaries()
	return m
}

func (m *lockModel) discoverFile(f *ast.File) {
	fset := m.pass.Fset
	info := m.pass.TypesInfo

	// Package-level lock-order relations may appear in any comment group.
	for _, g := range f.Comments {
		for _, d := range directivesIn(g, fset) {
			if d.name != "lockorder" {
				continue
			}
			before, after, ok := strings.Cut(d.args, "<")
			if !ok {
				continue
			}
			a, b := strings.TrimSpace(before), strings.TrimSpace(after)
			if m.orderOK[a] == nil {
				m.orderOK[a] = make(map[string]bool)
			}
			m.orderOK[a][b] = true
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				d, ok := docDirective(field.Doc, fset, "lockclass")
				if !ok {
					d, ok = docDirective(field.Comment, fset, "lockclass")
				}
				if !ok || d.args == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						m.classOf[obj] = d.args
					}
				}
			}
		case *ast.FuncDecl:
			if fn, ok := info.Defs[n.Name].(*types.Func); ok {
				if d, ok := docDirective(n.Doc, fset, "holds"); ok {
					var classes []string
					for _, c := range strings.Split(d.args, ",") {
						if c = strings.TrimSpace(c); c != "" {
							classes = append(classes, c)
						}
					}
					m.holds[fn] = classes
				}
			}
			if n.Body != nil {
				fn, _ := info.Defs[n.Name].(*types.Func)
				m.funcs = append(m.funcs, funcInfo{decl: n, obj: fn})
			}
			return false // fields of local types can't carry classes
		case *ast.GenDecl:
			if n.Tok != token.TYPE {
				return true
			}
			for _, spec := range n.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(n.Specs) == 1 {
					doc = n.Doc
				}
				if _, ok := docDirective(doc, fset, "hook"); ok {
					if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
						m.hookTypes[tn] = true
					}
				}
			}
		}
		return true
	})
}

// holdsSet returns the entry-held classes of fn per its annotation.
func (m *lockModel) holdsSet(fn *types.Func) stringSet {
	if fn == nil {
		return newSet()
	}
	return newSet(m.holds[fn]...)
}

// lockOp classifies a call as a classed mutex acquire or release. Only
// Lock/RLock/TryLock (and their Unlock counterparts) on struct fields
// annotated //tcache:lockclass count; everything else is invisible to
// the lock model.
func (m *lockModel) lockOp(call *ast.CallExpr) (class string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	obj := m.pass.TypesInfo.Uses[inner.Sel]
	if obj == nil {
		if s := m.pass.TypesInfo.Selections[inner]; s != nil {
			obj = s.Obj()
		}
	}
	if obj == nil {
		return "", false, false
	}
	class, ok = m.classOf[obj]
	return class, acquire, ok
}

// calleeFunc resolves a call's static callee, if it has one (named
// functions, methods, and interface methods; not func values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// hookInvocation reports whether call invokes a value of an annotated
// hook type.
func (m *lockModel) hookInvocation(call *ast.CallExpr) (string, bool) {
	t := m.pass.TypesInfo.TypeOf(call.Fun)
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	if m.hookTypes[named.Obj()] {
		return named.Obj().Name(), true
	}
	return "", false
}

// directEffect names the blocking or externally visible effect of
// calling fn directly, or "" if none. These are the operations that must
// never run while a classed mutex is held.
func directEffect(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	switch {
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "net I/O"
	case path == "os" || strings.HasPrefix(path, "os/"):
		return "os I/O"
	case path == "io" || strings.HasPrefix(path, "io/"):
		return "io call"
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case strings.HasSuffix(path, "internal/lock") && fn.Name() == "Acquire":
		return "blocking lock.Manager.Acquire"
	}
	return ""
}

// isTerminalCall reports whether call never returns (panic, os.Exit,
// log.Fatal, testing's Fatal/FailNow family), terminating its control
// path for the flow walker.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal")
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	return false
}

// computeSummaries collects each function's direct acquisitions, direct
// effects, and same-package call edges, then iterates both maps to a
// fixpoint so transitive behavior is visible at every call site.
func (m *lockModel) computeSummaries() {
	raws := make(map[*types.Func]*rawSummary)
	for _, fi := range m.funcs {
		if fi.obj == nil {
			continue
		}
		r := &rawSummary{m: m, acquires: newSet(), effects: newSet()}
		w := &lockWalker{model: m, collect: true, handler: r}
		w.walkFunc(fi.decl.Body, newSet())
		raws[fi.obj] = r
	}

	// Fixpoint: propagate callee summaries/effects up the same-package
	// call graph until stable (cycles converge because sets only grow).
	for changed := true; changed; {
		changed = false
		for fn, r := range raws {
			sum := r.acquires.clone()
			eff := r.effects.clone()
			for _, callee := range r.callees {
				for c := range m.summaries[callee] {
					sum[c] = true
				}
				for e := range m.effects[callee] {
					eff[e] = true
				}
			}
			// Classes the function's caller already holds for it are the
			// caller's acquisitions, not this function's.
			for _, c := range m.holds[fn] {
				delete(sum, c)
			}
			if len(sum) != len(m.summaries[fn]) || len(eff) != len(m.effects[fn]) {
				m.summaries[fn] = sum
				m.effects[fn] = eff
				changed = true
			}
		}
	}
}

// rawSummary is the lockHandler of summary collection: one function's
// direct acquisitions, direct effects and same-package callees.
type rawSummary struct {
	m                 *lockModel
	acquires, effects stringSet
	callees           []*types.Func
}

func (r *rawSummary) acquire(class string, pos token.Pos, held stringSet) { r.acquires[class] = true }

func (r *rawSummary) call(fn *types.Func, call *ast.CallExpr, held stringSet) {
	switch {
	case fn == nil:
		if name, ok := r.m.hookInvocation(call); ok {
			r.effects["invocation of //tcache:hook type "+name] = true
		}
	case directEffect(fn) != "":
		r.effects[directEffect(fn)] = true
	case fn.Pkg() == r.m.pass.Pkg:
		r.callees = append(r.callees, fn)
	}
}

func (r *rawSummary) send(s *ast.SendStmt, held stringSet) { r.effects["channel send"] = true }

// lockHandler receives flow-walk events with the held set at that point.
type lockHandler interface {
	acquire(class string, pos token.Pos, held stringSet)
	call(fn *types.Func, call *ast.CallExpr, held stringSet)
	// send fires only for potentially blocking sends: bare send
	// statements and selects without a default clause.
	send(s *ast.SendStmt, held stringSet)
}

// lockWalker walks one function body in rough evaluation order,
// threading the set of held lock classes through control flow. Branch
// merges union the held sets; terminated branches (return/panic/Fatal)
// drop out. Loops are walked once, joined with the zero-iteration state.
// Function literals are queued and walked separately with an empty entry
// state: they run as goroutines, deferred cleanups, or stored callbacks,
// none of which inherit the creator's locks synchronously.
type lockWalker struct {
	model   *lockModel
	handler lockHandler
	// collect mode (summary gathering) also surfaces deferred calls —
	// they run within the function's dynamic extent, so their
	// acquisitions belong in its summary even though the held set at
	// defer-run time is unknown.
	collect  bool
	funcLits []*ast.FuncLit
}

// walkFunc walks body from the entry held set, then drains queued
// function literals with empty entry states.
func (w *lockWalker) walkFunc(body *ast.BlockStmt, entry stringSet) {
	w.walkStmts(body.List, entry)
	for len(w.funcLits) > 0 {
		lit := w.funcLits[0]
		w.funcLits = w.funcLits[1:]
		w.walkStmts(lit.Body.List, newSet())
	}
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held stringSet) stringSet {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
		if held == nil {
			return nil
		}
	}
	return held
}

func (w *lockWalker) walkStmt(s ast.Stmt, held stringSet) stringSet {
	if held == nil {
		return nil
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.walkExpr(e, held)
			if held == nil {
				return nil
			}
		}
		for _, e := range s.Lhs {
			held = w.walkExpr(e, held)
			if held == nil {
				return nil
			}
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.walkExpr(v, held)
						if held == nil {
							return nil
						}
					}
				}
			}
		}
		return held
	case *ast.IfStmt:
		held = w.walkStmt0(s.Init, held)
		held = w.walkExprNilable(s.Cond, held)
		if held == nil {
			return nil
		}
		after := w.walkStmts(s.Body.List, held.clone())
		var alt stringSet
		if s.Else != nil {
			alt = w.walkStmt(s.Else, held.clone())
		} else {
			alt = held
		}
		return joinStates(after, alt)
	case *ast.ForStmt:
		held = w.walkStmt0(s.Init, held)
		held = w.walkExprNilable(s.Cond, held)
		if held == nil {
			return nil
		}
		body := w.walkStmts(s.Body.List, held.clone())
		if body != nil && s.Post != nil {
			body = w.walkStmt(s.Post, body)
		}
		return joinStates(held, body)
	case *ast.RangeStmt:
		held = w.walkExprNilable(s.X, held)
		if held == nil {
			return nil
		}
		body := w.walkStmts(s.Body.List, held.clone())
		return joinStates(held, body)
	case *ast.SwitchStmt:
		held = w.walkStmt0(s.Init, held)
		held = w.walkExprNilable(s.Tag, held)
		if held == nil {
			return nil
		}
		return w.walkCases(s.Body, held, false)
	case *ast.TypeSwitchStmt:
		held = w.walkStmt0(s.Init, held)
		held = w.walkStmt0(s.Assign, held)
		if held == nil {
			return nil
		}
		return w.walkCases(s.Body, held, false)
	case *ast.SelectStmt:
		return w.walkSelect(s, held)
	case *ast.SendStmt:
		held = w.walkExpr(s.Chan, held)
		held = w.walkExprNilable(s.Value, held)
		if held == nil {
			return nil
		}
		w.handler.send(s, held)
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.walkExpr(e, held)
			if held == nil {
				return nil
			}
		}
		return nil
	case *ast.BranchStmt:
		// break/continue/goto: conservatively treat as leaving this path;
		// the states they carry are not merged at their targets.
		return nil
	case *ast.DeferStmt:
		return w.walkDefer(s.Call, held)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			held = w.walkExprNilable(a, held)
			if held == nil {
				return nil
			}
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.funcLits = append(w.funcLits, lit)
		}
		return held
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held.clone())
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IncDecStmt:
		return w.walkExpr(s.X, held)
	case *ast.EmptyStmt, nil:
		return held
	default:
		return held
	}
}

// walkStmt0 walks an optional statement (if/for/switch init clauses).
func (w *lockWalker) walkStmt0(s ast.Stmt, held stringSet) stringSet {
	if s == nil || held == nil {
		return held
	}
	return w.walkStmt(s, held)
}

func (w *lockWalker) walkExprNilable(e ast.Expr, held stringSet) stringSet {
	if e == nil || held == nil {
		return held
	}
	return w.walkExpr(e, held)
}

// walkCases walks a switch body: each clause starts from the shared
// entry state; the result joins every live clause, plus the entry state
// itself when no default clause guarantees a clause runs.
func (w *lockWalker) walkCases(body *ast.BlockStmt, held stringSet, isSelect bool) stringSet {
	var merged stringSet
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		st := held.clone()
		for _, e := range cc.List {
			st = w.walkExprNilable(e, st)
		}
		if st != nil {
			st = w.walkStmts(cc.Body, st)
		}
		merged = joinStates(merged, st)
	}
	if !hasDefault {
		merged = joinStates(merged, held)
	}
	return merged
}

// walkSelect walks a select statement. Sends used as comm clauses of a
// select WITH a default are non-blocking by construction and produce no
// send events; everything else behaves like a switch over the clauses.
func (w *lockWalker) walkSelect(s *ast.SelectStmt, held stringSet) stringSet {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	var merged stringSet
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		st := held.clone()
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			st = w.walkExpr(comm.Chan, st)
			st = w.walkExprNilable(comm.Value, st)
			if st != nil && !hasDefault {
				w.handler.send(comm, st)
			}
		case nil:
		default:
			st = w.walkStmt(comm, st)
		}
		if st != nil {
			st = w.walkStmts(cc.Body, st)
		}
		merged = joinStates(merged, st)
	}
	return merged
}

// walkDefer handles a defer statement. Deferred classed Unlocks leave
// the class held for the rest of the body (it really is held until
// return). Deferred function literals are queued for a separate walk.
// Other deferred calls produce call events only in collect mode: they
// run within the function's dynamic extent (so they belong in its
// summary), but the held set when they finally run is not the current
// one, so checking passes skip them.
func (w *lockWalker) walkDefer(call *ast.CallExpr, held stringSet) stringSet {
	for _, a := range call.Args {
		held = w.walkExprNilable(a, held)
		if held == nil {
			return nil
		}
	}
	if _, acquire, ok := w.model.lockOp(call); ok && !acquire {
		return held // deferred unlock: held until function end
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.funcLits = append(w.funcLits, lit)
		return held
	}
	if w.collect {
		w.handler.call(calleeFunc(w.model.pass.TypesInfo, call), call, held)
	}
	return held
}

// walkExpr walks an expression in rough evaluation order (operands
// before the operation), firing acquire/release/call events as they are
// encountered. Returns nil if a terminal call (panic etc.) makes the
// rest of the path unreachable.
func (w *lockWalker) walkExpr(e ast.Expr, held stringSet) stringSet {
	if held == nil {
		return nil
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		// Arguments evaluate before the call.
		for _, a := range e.Args {
			held = w.walkExpr(a, held)
			if held == nil {
				return nil
			}
		}
		// A method expression's receiver may itself contain calls.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			held = w.walkExpr(sel.X, held)
			if held == nil {
				return nil
			}
		}
		if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked literal: walked separately; the call
			// itself has no static callee.
			w.funcLits = append(w.funcLits, lit)
			return held
		}
		if class, acquire, ok := w.model.lockOp(e); ok {
			if acquire {
				w.handler.acquire(class, e.Pos(), held)
				next := held.clone()
				next[class] = true
				return next
			}
			next := held.clone()
			delete(next, class)
			return next
		}
		if isTerminalCall(w.model.pass.TypesInfo, e) {
			return nil
		}
		w.handler.call(calleeFunc(w.model.pass.TypesInfo, e), e, held)
		return held
	case *ast.FuncLit:
		w.funcLits = append(w.funcLits, e)
		return held
	case *ast.ParenExpr:
		return w.walkExpr(e.X, held)
	case *ast.SelectorExpr:
		return w.walkExpr(e.X, held)
	case *ast.BinaryExpr:
		held = w.walkExpr(e.X, held)
		return w.walkExprNilable(e.Y, held)
	case *ast.UnaryExpr:
		return w.walkExpr(e.X, held)
	case *ast.StarExpr:
		return w.walkExpr(e.X, held)
	case *ast.IndexExpr:
		held = w.walkExpr(e.X, held)
		return w.walkExprNilable(e.Index, held)
	case *ast.SliceExpr:
		held = w.walkExpr(e.X, held)
		held = w.walkExprNilable(e.Low, held)
		held = w.walkExprNilable(e.High, held)
		return w.walkExprNilable(e.Max, held)
	case *ast.TypeAssertExpr:
		return w.walkExpr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = w.walkExpr(el, held)
			if held == nil {
				return nil
			}
		}
		return held
	case *ast.KeyValueExpr:
		held = w.walkExpr(e.Key, held)
		return w.walkExprNilable(e.Value, held)
	default:
		return held
	}
}
