package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc is the static complement of the runtime allocation budgets
// (alloc_test.go in the root package): functions annotated
// //tcache:hotpath may not introduce the allocation patterns the PR 3
// purge removed — fmt calls, non-constant string concatenation,
// map/slice composite literals, or closures that capture locals (each
// capture forces a heap allocation). Struct literals and make() remain
// fine: the compiler stack-allocates the former, and the latter is
// explicit and reviewable.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no fmt, string concat, map/slice literals, or capturing closures in //tcache:hotpath funcs",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := docDirective(fd.Doc, pass.Fset, "hotpath"); !ok {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "%s: fmt.%s on a //tcache:hotpath function allocates (format machinery + boxing)", fd.Name.Name, fn.Name())
			}
		case *ast.BinaryExpr:
			if n.Op.String() != "+" {
				return true
			}
			tv, ok := info.Types[n]
			if !ok || tv.Value != nil { // constant-folded concat is free
				return true
			}
			if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				pass.Reportf(n.Pos(), "%s: string concatenation on a //tcache:hotpath function allocates", fd.Name.Name)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "%s: map literal on a //tcache:hotpath function allocates", fd.Name.Name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s: slice literal on a //tcache:hotpath function allocates", fd.Name.Name)
			}
		case *ast.FuncLit:
			if v := capturedVar(pass, n); v != "" {
				pass.Reportf(n.Pos(), "%s: closure capturing %q on a //tcache:hotpath function forces a heap allocation", fd.Name.Name, v)
			}
			return false // don't double-report the literal's own body
		}
		return true
	})
	return
}

// capturedVar returns the name of a local variable the literal captures
// from its enclosing function, or "" if it captures nothing (package-
// level references and its own locals/params don't count).
func capturedVar(pass *Pass, lit *ast.FuncLit) string {
	info := pass.TypesInfo
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || v.Pkg() != pass.Pkg {
			return true // package-level or foreign
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own param/local
		}
		captured = v.Name()
		return false
	})
	return captured
}
