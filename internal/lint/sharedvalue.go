package lint

import (
	"go/ast"
	"go/types"
)

// SharedValue enforces the copy-on-write read contract: Values and Items
// returned by the COW read APIs alias the store's internal bytes and
// must be Clone()d before any mutation. The analyzer taints variables
// assigned from those APIs and flags byte-level mutations — index
// assignment, append, copy-as-destination, in-place sort — reached
// without an intervening Clone. Replacing a whole element of a returned
// slice, or reassigning a field of a returned Item struct copy, is fine:
// only the shared byte regions (Value bytes, Deps lists) are protected.
//
// Tracking is per-function and flow-insensitive across branches; taint
// does not survive a call boundary.
var SharedValue = &Analyzer{
	Name: "sharedvalue",
	Doc:  "no mutation of COW values returned by read APIs without Clone",
	Run:  runSharedValue,
}

type cowKind int

const (
	kindNone cowKind = iota
	// kindShared: the expression denotes shared bytes (a kv.Value or
	// kv.DepList aliasing store memory).
	kindShared
	// kindItem: a kv.Item whose Value/Deps fields are shared.
	kindItem
	// kindValues: a fresh slice ([]Value, []DepList) of shared elements.
	kindValues
	// kindLookups: a fresh []Lookup whose Items carry shared bytes.
	kindLookups
	// kindCommit: a kv.CommitResult whose Deps is kindValues.
	kindCommit
)

// cowSource is one read API whose result aliases store memory.
type cowSource struct {
	path, recv, name string
	kind             cowKind
}

// cowSources lists the repo's COW read APIs. The shared result is
// always result 0 of the call.
var cowSources = []cowSource{
	{"tcache", "DB", "Get", kindShared},
	{"tcache", "DB", "ReadItem", kindItem},
	{"tcache", "DB", "ReadItems", kindLookups},
	{"tcache", "ReadTx", "Get", kindShared},
	{"tcache", "ReadTx", "GetMulti", kindValues},
	{"tcache", "Cache", "Get", kindShared},
	{"tcache", "Tx", "Get", kindShared},
	{"tcache/internal/core", "Cache", "Read", kindShared},
	{"tcache/internal/core", "Cache", "Get", kindShared},
	{"tcache/internal/core", "Cache", "ReadMulti", kindValues},
	{"tcache/internal/core", "Txn", "Read", kindShared},
	{"tcache/internal/core", "Txn", "ReadMulti", kindValues},
	{"tcache/internal/core", "Cache", "GetItem", kindItem},
	{"tcache/internal/core", "Cache", "GetItems", kindLookups},
	{"tcache/internal/db", "DB", "Get", kindItem},
	{"tcache/internal/db", "DB", "ReadItem", kindItem},
	{"tcache/internal/db", "DB", "ReadItems", kindLookups},
	{"tcache/internal/db", "store", "GetShared", kindItem},
	{"tcache", "DB", "CommitUpdate", kindCommit},
	{"tcache/internal/db", "DB", "CommitUpdate", kindCommit},
}

func runSharedValue(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tr := &taintTracker{pass: pass, taints: make(map[types.Object]taint)}
			tr.walk(fd.Body)
		}
	}
	return nil
}

type taint struct {
	kind cowKind
	src  string // the API that produced it, for the message
}

type taintTracker struct {
	pass   *Pass
	taints map[types.Object]taint
}

// walk scans the body in source order, updating taints at assignments
// and flagging mutations of shared bytes.
func (tr *taintTracker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			tr.checkMutationLHS(n)
			tr.propagate(n)
		case *ast.RangeStmt:
			tr.propagateRange(n)
		case *ast.CallExpr:
			tr.checkMutatingCall(n)
		}
		return true
	})
}

// sourceOf matches a call against the COW source table.
func (tr *taintTracker) sourceOf(call *ast.CallExpr) (taint, bool) {
	fn := calleeFunc(tr.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return taint{}, false
	}
	recv := receiverTypeName(fn)
	for _, s := range cowSources {
		if fn.Pkg().Path() == s.path && fn.Name() == s.name && recv == s.recv {
			return taint{kind: s.kind, src: s.recv + "." + s.name}, true
		}
	}
	return taint{}, false
}

func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// kindOf classifies an expression's relationship to shared store bytes.
func (tr *taintTracker) kindOf(e ast.Expr) taint {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := tr.pass.TypesInfo.Uses[e]; obj != nil {
			return tr.taints[obj]
		}
	case *ast.ParenExpr:
		return tr.kindOf(e.X)
	case *ast.SelectorExpr:
		base := tr.kindOf(e.X)
		switch {
		case base.kind == kindItem && (e.Sel.Name == "Value" || e.Sel.Name == "Deps"):
			return taint{kind: kindShared, src: base.src}
		case base.kind == kindLookups && e.Sel.Name == "Item":
			return taint{kind: kindItem, src: base.src}
		case base.kind == kindCommit && e.Sel.Name == "Deps":
			return taint{kind: kindValues, src: base.src}
		}
	case *ast.IndexExpr:
		base := tr.kindOf(e.X)
		switch base.kind {
		case kindValues:
			return taint{kind: kindShared, src: base.src}
		case kindLookups:
			return taint{kind: kindLookups, src: base.src} // lus[i] is a Lookup
		}
	}
	return taint{}
}

// propagate updates variable taints for one assignment: results of COW
// source calls become tainted, aliases of tainted expressions stay
// tainted, and any other assignment (including v = v.Clone()) clears.
func (tr *taintTracker) propagate(n *ast.AssignStmt) {
	info := tr.pass.TypesInfo
	setIdent := func(e ast.Expr, t taint) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if t.kind == kindNone {
			delete(tr.taints, obj)
		} else {
			tr.taints[obj] = t
		}
	}

	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if t, ok := tr.sourceOf(call); ok {
				// The shared payload is result 0; companion results
				// (ok/err) clear.
				for i, lhs := range n.Lhs {
					if i == 0 {
						setIdent(lhs, t)
					} else {
						setIdent(lhs, taint{})
					}
				}
				return
			}
			// Any other single-call RHS (Clone() included) clears the
			// targets.
			for _, lhs := range n.Lhs {
				setIdent(lhs, taint{})
			}
			return
		}
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			setIdent(n.Lhs[i], tr.kindOf(n.Rhs[i]))
		}
	}
}

// propagateRange taints the value variable of `for _, v := range xs`
// when xs is a tainted slice.
func (tr *taintTracker) propagateRange(n *ast.RangeStmt) {
	base := tr.kindOf(n.X)
	if base.kind == kindNone || n.Value == nil {
		return
	}
	id, ok := n.Value.(*ast.Ident)
	if !ok {
		return
	}
	obj := tr.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = tr.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	switch base.kind {
	case kindValues:
		tr.taints[obj] = taint{kind: kindShared, src: base.src}
	case kindLookups:
		tr.taints[obj] = taint{kind: kindLookups, src: base.src}
	}
}

// checkMutationLHS flags index assignment into shared bytes: v[i] = x
// where v aliases store memory.
func (tr *taintTracker) checkMutationLHS(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		if t := tr.kindOf(ix.X); t.kind == kindShared {
			tr.pass.Reportf(lhs.Pos(), "index assignment into shared copy-on-write value returned by %s: Clone() it before modifying", t.src)
		}
	}
}

// checkMutatingCall flags append/copy/sort mutations of shared bytes.
func (tr *taintTracker) checkMutatingCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	arg0 := tr.kindOf(call.Args[0])
	if arg0.kind != kindShared {
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := tr.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				tr.pass.Reportf(call.Pos(), "append to shared copy-on-write value returned by %s: Clone() it before modifying", arg0.src)
			case "copy":
				tr.pass.Reportf(call.Pos(), "copy into shared copy-on-write value returned by %s: Clone() it before modifying", arg0.src)
			}
		}
	case *ast.SelectorExpr:
		fn := calleeFunc(tr.pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
			tr.pass.Reportf(call.Pos(), "in-place sort of shared copy-on-write value returned by %s: Clone() it before modifying", arg0.src)
		}
	}
}
