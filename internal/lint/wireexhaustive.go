package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WireExhaustive keeps the wire protocol closed under extension: a
// switch annotated //tcache:exhaustive must mention every package-level
// constant of its tag type in an explicit case — so adding an Op
// constant breaks the build of both dispatch switches until they answer
// it. Codec symmetry is checked by each codec's tests, which round-trip
// every field of its structs filled by testing/quick.
var WireExhaustive = &Analyzer{
	Name: "wireexhaustive",
	Doc:  "annotated switches cover every constant of their tag type",
	Run:  runWireExhaustive,
}

func runWireExhaustive(pass *Pass) error {
	for _, f := range pass.Files {
		idx := indexFileDirectives(f, pass.Fset)
		ast.Inspect(f, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
				if _, ok := idx.at(pass.Fset, sw.Pos(), "exhaustive"); ok {
					checkExhaustiveSwitch(pass, sw)
				}
			}
			return true
		})
	}
	return nil
}

// checkExhaustiveSwitch verifies every constant of the tag's named type
// appears in some case clause. A default clause does not excuse a
// missing constant: the point is that new constants force an explicit
// decision at every annotated dispatch site.
func checkExhaustiveSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tagType := pass.TypesInfo.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		pass.Reportf(sw.Pos(), "//tcache:exhaustive switch tag is not a named type")
		return
	}
	scope := named.Obj().Pkg()
	if scope == nil {
		pass.Reportf(sw.Pos(), "//tcache:exhaustive switch tag type %s has no package scope", named.Obj().Name())
		return
	}

	want := make(map[string]bool)
	for _, name := range scope.Scope().Names() {
		if c, ok := scope.Scope().Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			want[name] = true
		}
	}
	if len(want) == 0 {
		return
	}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			var obj types.Object
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[e]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[e.Sel]
			}
			if c, ok := obj.(*types.Const); ok {
				delete(want, c.Name())
			}
		}
	}
	if len(want) > 0 {
		missing := newSet()
		for name := range want {
			missing[name] = true
		}
		pass.Reportf(sw.Pos(), "//tcache:exhaustive switch on %s is missing case(s) for: %s", named.Obj().Name(), strings.Join(missing.sorted(), ", "))
	}
}
