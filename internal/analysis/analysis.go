// Package analysis is the repository's static-analysis engine: a
// stdlib-only (go/ast + go/parser + go/types, repo packages from
// source and the standard library from the go command's export data,
// no x/tools) driver plus the project-specific analyzers that turn the
// reproduction's determinism and layering contracts into compile-time
// invariants instead of runtime hopes.
//
// The guarantees this repository trades on — byte-identical
// parallel-vs-sequential runs, dense-vs-circulant bit-equivalence below
// variation.ExactSampleCap, ledger shares summing to the measured
// distortion within 1e-9, stable golden files — are all one careless
// `time.Now` or unsorted map range away from silently eroding. Each
// analyzer polices one such failure mode:
//
//	determinism     no time.Now/time.Since, global math/rand, or bare
//	                `go` statements in simulation packages
//	mapiter         no map iteration that writes to an encoder, builder,
//	                writer, or escaping slice without sorting first
//	layering        the import DAG (the README's layering matrix,
//	                formerly duplicated in layering_test.go)
//	floateq         no ==/!= on floats outside an allowlist of exact
//	                key comparisons
//	telemetrynames  telemetry metric and stage names are literals,
//	                match ^[a-z0-9_.]+$, and live in the catalog
//	seedhygiene     no *mathx.RNG or worker-invariant seed reuse
//	                across parallel worker closures
//
// A finding can be suppressed with a justified inline comment,
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line above it. Suppressions are
// parsed, counted, and budgeted: an unused or malformed suppression is
// itself a diagnostic, and a tree that accumulates more than
// Config.SuppressionBudget of them fails the run, so the escape hatch
// cannot quietly become the front door.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named static check. Run inspects a single
// type-checked package and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass hands one loaded package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: where, which analyzer, and what.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the driver's canonical
// file:line:col: [analyzer] message shape.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns every analyzer in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapIterAnalyzer,
		LayeringAnalyzer,
		FloatEqAnalyzer,
		TelemetryNamesAnalyzer,
		SeedHygieneAnalyzer,
	}
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

// ignoreRe matches `//lint:ignore <analyzer> <reason>`; the reason is
// mandatory — an unjustified suppression is a finding.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s*(.*)$`)

// suppressions indexes a package's //lint:ignore comments by the line
// they apply to. A comment suppresses matching diagnostics on its own
// line and on the line directly below it (the comment-above idiom).
type suppressions struct {
	byLine map[int][]*suppression
	all    []*suppression
}

// parseSuppressions scans every comment in the package. Malformed
// directives (no reason, unknown analyzer) are reported immediately
// since no later stage will look at them again.
func parseSuppressions(pkg *Package, known map[string]bool, report func(Diagnostic)) *suppressions {
	sup := &suppressions{byLine: map[int][]*suppression{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//lint:") {
						report(Diagnostic{
							Analyzer: "driver",
							Pos:      pkg.Fset.Position(c.Pos()),
							Message:  fmt.Sprintf("malformed lint directive %q (want //lint:ignore <analyzer> <reason>)", c.Text),
						})
					}
					continue
				}
				s := &suppression{analyzer: m[1], reason: strings.TrimSpace(m[2]), pos: c.Pos()}
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case !known[s.analyzer]:
					report(Diagnostic{
						Analyzer: "driver",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", s.analyzer),
					})
					continue
				case s.reason == "":
					report(Diagnostic{
						Analyzer: "driver",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:ignore %s needs a justification", s.analyzer),
					})
					continue
				}
				sup.all = append(sup.all, s)
				sup.byLine[pos.Line] = append(sup.byLine[pos.Line], s)
				sup.byLine[pos.Line+1] = append(sup.byLine[pos.Line+1], s)
			}
		}
	}
	return sup
}

// match consumes a suppression for a diagnostic, if one applies.
func (s *suppressions) match(d Diagnostic) bool {
	for _, cand := range s.byLine[d.Pos.Line] {
		if cand.analyzer == d.Analyzer {
			cand.used = true
			return true
		}
	}
	return false
}

// Result is one driver run's outcome.
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  int // findings silenced by a used //lint:ignore
}

// Run loads the packages matching patterns and applies every analyzer,
// returning findings sorted by position. Suppressed findings are
// counted, unused suppressions are reported, and exceeding the
// configured suppression budget is itself a finding.
func Run(cfg *Config, patterns []string) (Result, error) {
	pkgs, err := Load(cfg, patterns)
	if err != nil {
		return Result{}, err
	}
	return RunPackages(cfg, pkgs), nil
}

// RunPackages applies every analyzer to already-loaded packages.
func RunPackages(cfg *Config, pkgs []*Package) Result {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var res Result
	totalSuppressions := 0
	for _, pkg := range pkgs {
		var raw []Diagnostic
		collect := func(d Diagnostic) { raw = append(raw, d) }
		sup := parseSuppressions(pkg, known, collect)
		totalSuppressions += len(sup.all)
		for _, a := range Analyzers() {
			pass := &Pass{Analyzer: a, Cfg: cfg, Pkg: pkg, report: collect}
			a.Run(pass)
		}
		for _, d := range raw {
			if d.Analyzer != "driver" && sup.match(d) {
				res.Suppressed++
				continue
			}
			res.Diagnostics = append(res.Diagnostics, d)
		}
		for _, s := range sup.all {
			if !s.used {
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Analyzer: "driver",
					Pos:      pkg.Fset.Position(s.pos),
					Message:  fmt.Sprintf("unused //lint:ignore %s (nothing to suppress here)", s.analyzer),
				})
			}
		}
	}
	if cfg.SuppressionBudget >= 0 && totalSuppressions > cfg.SuppressionBudget {
		res.Diagnostics = append(res.Diagnostics, Diagnostic{
			Analyzer: "driver",
			Message: fmt.Sprintf("suppression budget exceeded: %d //lint:ignore directives, budget %d — fix findings instead of silencing them",
				totalSuppressions, cfg.SuppressionBudget),
		})
	}
	sort.SliceStable(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i].Pos, res.Diagnostics[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return res
}

// ---- shared type helpers used by several analyzers ----

// namedType reports the (package path, name) of t's core named type,
// unwrapping pointers and aliases; ok is false for unnamed types.
func namedType(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name(), true
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// isFloat reports whether t's underlying type is a floating-point
// basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// funcFor resolves the called function object of a call expression,
// seeing through parenthesization; nil when the callee is not a
// declared function or method.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeIs reports whether call resolves to the package-level function
// pkgPath.name.
func calleeIs(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := funcFor(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}
