package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"strconv"

	"tcache/internal/telemetry"
)

// MetricName is the static half of the telemetry registry's naming
// contract. The registry panics at first scrape on an invalid or
// duplicate metric name; this analyzer moves both failures to build
// time for every function annotated //tcache:metric (the convention for
// RegisterMetrics-style functions): each Counter/Gauge/Histogram call
// must pass a string-constant name, the name must be lowercase_snake
// (telemetry.ValidMetricName — the exact grammar the registry enforces,
// which excludes the '|' the flat wire encoding reserves and everything
// Prometheus rejects), and no name may be registered twice across the
// package's annotated functions. A struct field tagged `metric:"name"`
// (a counter declared for telemetry.CounterSet, which registers it
// reflectively) is held to the same grammar and shares the namespace.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "metric names in //tcache:metric funcs are lowercase_snake string constants, unique per package",
	Run:  runMetricName,
}

// metricRegMethods are the registry's registration entry points.
var metricRegMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func runMetricName(pass *Pass) error {
	seen := map[string]token.Pos{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				checkMetricTags(pass, st, seen)
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := docDirective(fd.Doc, pass.Fset, "metric"); !ok {
				continue
			}
			checkMetricFunc(pass, fd, seen)
		}
	}
	return nil
}

func checkMetricTags(pass *Pass, st *ast.StructType, seen map[string]token.Pos) {
	for _, field := range st.Fields.List {
		if field.Tag == nil {
			continue
		}
		tag, err := strconv.Unquote(field.Tag.Value)
		if err != nil {
			continue
		}
		name, ok := reflect.StructTag(tag).Lookup("metric")
		if !ok {
			continue
		}
		if !telemetry.ValidMetricName(name) {
			pass.Reportf(field.Tag.Pos(), "metric tag %q is not lowercase_snake (the registry will panic at runtime)", name)
		} else if prev, dup := seen[name]; dup {
			pass.Reportf(field.Tag.Pos(), "metric %q already registered at %s (duplicate names panic at runtime)", name, pass.Fset.Position(prev))
		} else {
			seen[name] = field.Tag.Pos()
		}
	}
}

func checkMetricFunc(pass *Pass, fd *ast.FuncDecl, seen map[string]token.Pos) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !metricRegMethods[sel.Sel.Name] || len(call.Args) < 1 {
			return true
		}
		// Only registry-shaped registrations count: a method whose first
		// parameter is the name string.
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || sig.Params().Len() < 1 {
			return true
		}
		if basic, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || basic.Info()&types.IsString == 0 {
			return true
		}
		tv, ok := info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(call.Args[0].Pos(), "%s: %s name must be a string constant (a computed name defeats the static vocabulary audit)", fd.Name.Name, sel.Sel.Name)
			return true
		}
		name := constant.StringVal(tv.Value)
		if !telemetry.ValidMetricName(name) {
			pass.Reportf(call.Args[0].Pos(), "%s: metric name %q is not lowercase_snake (the registry will panic at runtime)", fd.Name.Name, name)
			return true
		}
		if prev, dup := seen[name]; dup {
			pass.Reportf(call.Args[0].Pos(), "%s: metric %q already registered at %s (duplicate names panic at runtime)", fd.Name.Name, name, pass.Fset.Position(prev))
			return true
		}
		seen[name] = call.Args[0].Pos()
		return true
	})
}
