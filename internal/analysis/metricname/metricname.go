// Package metricname checks the sdr_<layer>_* metric taxonomy PR 6
// established. Registration against an obs.Registry must use:
//
//   - a compile-time constant name matching sdr_<layer>_<metric>, where
//     <layer> is the registering package's name — the coordinator's
//     RunStats folding and the CI observability smoke both key on the
//     layer segment, so a metric registered under the wrong layer
//     silently vanishes from dashboards;
//   - counter names ending in _total and gauge names not ending in
//     _total (the Prometheus convention the scrape asserts use);
//   - label names declared as a []string literal of constants at the
//     registration site, with a value literal of equal length — label
//     drift between two registrations of one family panics at runtime
//     (obs.Registry.lookup), and this check moves that to vet time.
package metricname

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metricname check.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "check sdr_<layer>_* metric names and label declarations at obs registration sites",
	Run:  run,
}

// registrars maps obs.Registry method names to whether they register a
// counter and whether they take (labelNames, labelValues).
var registrars = map[string]struct{ counter, labeled bool }{
	"Counter":     {counter: true},
	"CounterWith": {counter: true, labeled: true},
	"Gauge":       {},
}

var nameRE = regexp.MustCompile(`^sdr_[a-z][a-z0-9]*_[a-z][a-z0-9_]*$`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			spec, ok := registrars[sel.Sel.Name]
			if !ok || !isObsRegistry(pass, sel) {
				return true
			}
			// Test scaffolding registers throwaway series under whatever
			// layer it is exercising; the taxonomy protects production
			// registrations only.
			if pass.IsTestFile(call.Pos()) {
				return true
			}
			checkRegistration(pass, call, sel.Sel.Name, spec.counter, spec.labeled)
			return true
		})
	}
	return nil
}

// isObsRegistry reports whether the selector's receiver is the Registry
// type of a package named obs (the real one or a testdata stub).
func isObsRegistry(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, method string, counter, labeled bool) {
	if len(call.Args) < 2 {
		return
	}
	nameArg := call.Args[0]
	name, ok := analysis.ConstString(pass.TypesInfo, nameArg)
	if !ok {
		pass.Reportf(nameArg.Pos(),
			"metric name must be a compile-time constant string, not a computed value")
		return
	}
	layer := pass.Pkg.Name()
	if !nameRE.MatchString(name) {
		pass.Reportf(nameArg.Pos(),
			"metric name %q does not match the sdr_<layer>_<metric> taxonomy", name)
	} else if !strings.HasPrefix(name, "sdr_"+layer+"_") {
		pass.Reportf(nameArg.Pos(),
			"metric name %q registered by package %s must carry its layer: want prefix %q", name, layer, "sdr_"+layer+"_")
	}
	if counter && !strings.HasSuffix(name, "_total") {
		pass.Reportf(nameArg.Pos(),
			"counter %q must end in _total (Prometheus counter convention)", name)
	}
	if !counter && strings.HasSuffix(name, "_total") {
		pass.Reportf(nameArg.Pos(),
			"gauge %q must not end in _total: _total marks counters", name)
	}

	if !labeled || len(call.Args) < 4 {
		return
	}
	names, ok := stringSliceLit(pass, call.Args[2])
	if !ok {
		pass.Reportf(call.Args[2].Pos(),
			"%s label names must be a []string literal of constants declared at the registration site", method)
		return
	}
	if len(names) == 0 {
		pass.Reportf(call.Args[2].Pos(),
			"%s with no labels: use the unlabeled registrar instead", method)
	}
	// The values may be computed (per-child registration), but when they
	// are a literal the arity must match — a mismatch panics at runtime.
	if vals, isLit := sliceLitLen(call.Args[3]); isLit && vals != len(names) {
		pass.Reportf(call.Args[3].Pos(),
			"%d label values for %d label names", vals, len(names))
	}
}

// stringSliceLit returns the constant strings of a []string composite
// literal, or ok=false if the expression is anything else.
func stringSliceLit(pass *analysis.Pass, e ast.Expr) ([]string, bool) {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return nil, false
	}
	var out []string
	for _, el := range lit.Elts {
		s, ok := analysis.ConstString(pass.TypesInfo, el)
		if !ok {
			return nil, false
		}
		out = append(out, s)
	}
	return out, true
}

// sliceLitLen returns the element count if e is a composite literal.
func sliceLitLen(e ast.Expr) (int, bool) {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return 0, false
	}
	return len(lit.Elts), true
}
