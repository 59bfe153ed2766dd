package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
)

// TelemetryNamesAnalyzer keeps the observability vocabulary closed and
// greppable. Every name handed to telemetry.GetCounter / GetGauge /
// GetHistogram / GetSeries / NewStage must
//
//   - resolve statically: a string literal, a concatenation with a
//     literal prefix ("cache." + name + ".hits"), or a local variable
//     whose every assignment in the function is such a value,
//   - match ^[a-z0-9_.]+$ in its literal part, and
//   - be registered in the catalog (internal/analysis/catalog.go) —
//     exact names exactly, dynamic families by literal prefix.
//
// This is what keeps the telemetry snapshot's names and the trace's
// stage names (which CI smoke checks and jq pipelines key on) from
// drifting or colliding: adding a metric means a visible catalog diff,
// and a typo in an emit site fails the lint run instead of shipping a
// phantom name.
var TelemetryNamesAnalyzer = &Analyzer{
	Name: "telemetrynames",
	Doc:  "require literal, well-formed, cataloged telemetry metric names",
	Run:  runTelemetryNames,
}

var nameRe = regexp.MustCompile(`^[a-z0-9_.]+$`)

// metricFuncs name the metric registration points in
// internal/telemetry.
var metricFuncs = map[string]bool{
	"GetCounter": true, "GetGauge": true, "GetHistogram": true, "GetSeries": true, "NewStage": true,
}

const telemetryPkgRel = "internal/telemetry"

func runTelemetryNames(pass *Pass) {
	rel, _ := pass.Cfg.rel(pass.Pkg.Path)
	for _, exempt := range pass.Cfg.TelemetryExempt {
		if rel == exempt {
			return
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && emitSite(pass, call) {
				checkName(pass, call.Args[0])
			}
			return true
		})
	}
}

// emitSite reports whether call hands a name to a registration point.
func emitSite(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	fn := funcFor(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pass.Cfg.ModulePath+"/"+telemetryPkgRel && metricFuncs[fn.Name()]
}

// checkName validates one name argument against the catalog.
func checkName(pass *Pass, arg ast.Expr) {
	cat := pass.Cfg.Catalog
	lits, isPrefix, ok := resolveName(pass, arg)
	if !ok {
		pass.Reportf(arg.Pos(), "metric name must be a string literal (or a literal-prefixed concatenation); dynamic names cannot be audited against the catalog")
		return
	}
	for _, lit := range lits {
		switch {
		case !nameRe.MatchString(lit):
			pass.Reportf(arg.Pos(), "metric name %q must match ^[a-z0-9_.]+$", lit)
		case isPrefix && !lookupPrefix(lit, cat.MetricPrefixes):
			pass.Reportf(arg.Pos(), "metric name family %q* is not registered in internal/analysis/catalog.go", lit)
		case !isPrefix && !lookupExact(lit, cat.Metrics, cat.MetricPrefixes):
			pass.Reportf(arg.Pos(), "metric name %q is not registered in internal/analysis/catalog.go", lit)
		}
	}
}

// resolveName statically resolves arg to a literal (isPrefix=false) or
// to the literal prefix of a concatenation (isPrefix=true). For a
// plain identifier it returns every literal assigned to that variable.
func resolveName(pass *Pass, arg ast.Expr) (lits []string, isPrefix, ok bool) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.BasicLit:
		if e.Kind.String() != "STRING" {
			return nil, false, false
		}
		s, err := strconv.Unquote(e.Value)
		if err != nil {
			return nil, false, false
		}
		return []string{s}, false, true
	case *ast.BinaryExpr:
		if e.Op.String() != "+" {
			return nil, false, false
		}
		// Leftmost operand of the concatenation chain must be literal.
		left := ast.Unparen(e.X)
		for {
			if be, isBin := left.(*ast.BinaryExpr); isBin && be.Op.String() == "+" {
				left = ast.Unparen(be.X)
				continue
			}
			break
		}
		if bl, isLit := left.(*ast.BasicLit); isLit {
			s, err := strconv.Unquote(bl.Value)
			if err != nil {
				return nil, false, false
			}
			return []string{s}, true, true
		}
		return nil, false, false
	case *ast.Ident:
		return resolveIdent(pass, e)
	}
	return nil, false, false
}

// resolveIdent handles the local-variable idiom
//
//	name := "fault.injected"
//	if mode == Drop { name = "fault.drops" }
//	telemetry.GetCounter(name)
//
// by requiring every assignment to the variable in its declaring
// package to be a plain string literal, and returns all of them so the
// caller checks each against the catalog.
func resolveIdent(pass *Pass, id *ast.Ident) ([]string, bool, bool) {
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return nil, false, false
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		// A typed constant still resolves exactly.
		if c, isConst := obj.(*types.Const); isConst && c.Val() != nil {
			s := c.Val().ExactString()
			if unq, err := strconv.Unquote(s); err == nil {
				return []string{unq}, false, true
			}
		}
		return nil, false, false
	}
	// Collect every assignment to v in the file set.
	var lits []string
	complete := true
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				li, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				lobj := pass.Pkg.Info.Defs[li]
				if lobj == nil {
					lobj = pass.Pkg.Info.Uses[li]
				}
				if lobj != v || i >= len(as.Rhs) {
					continue
				}
				if bl, ok := ast.Unparen(as.Rhs[i]).(*ast.BasicLit); ok {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						lits = append(lits, s)
						continue
					}
				}
				complete = false
			}
			return true
		})
	}
	if !complete || len(lits) == 0 {
		return nil, false, false
	}
	return lits, false, true
}
