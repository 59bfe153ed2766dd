package analysis

import (
	"go/ast"
	"go/types"
)

// SeedHygieneAnalyzer polices randomness inside worker closures handed
// to the deterministic pool (parallel.ForEach / Map). Two bugs keep
// reappearing in Monte-Carlo code:
//
//   - a *mathx.RNG captured from the enclosing scope and drawn from
//     inside the closure — workers then race on one generator state,
//     and even with a lock the draw order depends on scheduling, so
//     runs stop being reproducible;
//   - mathx.NewRNG(seed) inside the closure with a worker-invariant
//     seed — every task then replays the identical stream, collapsing
//     the Monte-Carlo sample to one realization.
//
// The sanctioned pattern is per-task derivation:
//
//	parallel.Map(ctx, n, func(_ context.Context, i int) (T, error) {
//	    rng := mathx.NewRNG(mathx.SplitSeed(seed, int64(i)))
//	    ...
//	})
//
// Accordingly, inside a worker closure the analyzer flags any use of a
// captured *mathx.RNG other than calling its Split method, and any
// mathx.NewRNG call whose argument neither mentions a closure
// parameter (the task index) nor goes through SplitSeed/Split.
var SeedHygieneAnalyzer = &Analyzer{
	Name: "seedhygiene",
	Doc:  "forbid sharing RNG state or replaying one seed across parallel worker closures",
	Run:  runSeedHygiene,
}

var poolEntryPoints = map[string]bool{"ForEach": true, "Map": true}

func runSeedHygiene(pass *Pass) {
	info := pass.Pkg.Info
	parallelPkg := pass.Cfg.ModulePath + "/internal/parallel"
	mathxPkg := pass.Cfg.ModulePath + "/internal/mathx"
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := funcFor(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parallelPkg || !poolEntryPoints[fn.Name()] {
				return true
			}
			worker, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorker(pass, worker, mathxPkg)
			return true
		})
	}
}

// checkWorker inspects one worker closure.
func checkWorker(pass *Pass, worker *ast.FuncLit, mathxPkg string) {
	info := pass.Pkg.Info

	// isFree reports whether obj is declared outside the closure.
	isFree := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < worker.Pos() || obj.Pos() > worker.End())
	}
	// params collects the closure's own parameters; an RNG argument
	// derived per task may legitimately flow in through one.
	params := map[types.Object]bool{}
	for _, field := range worker.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}

	ast.Inspect(worker.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// mathx.NewRNG(arg): the argument must vary per task.
			if calleeIs(info, n, mathxPkg, "NewRNG") && len(n.Args) == 1 {
				arg := n.Args[0]
				if !argVariesPerTask(info, arg, params, mathxPkg) {
					pass.Reportf(n.Pos(), "mathx.NewRNG seeded with a worker-invariant value inside a pool closure; every task replays one stream — derive per-task seeds with mathx.SplitSeed(seed, id)")
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || !isFree(obj) || params[obj] {
				return true
			}
			if p, name, ok := namedType(obj.Type()); ok && p == mathxPkg && name == "RNG" {
				if !isSplitReceiver(pass, n) {
					pass.Reportf(n.Pos(), "captured *mathx.RNG %q used inside a pool closure; workers would share one generator state — call its Split method (or SplitSeed) to derive per-task generators", n.Name)
				}
			}
		}
		return true
	})
}

// argVariesPerTask reports whether the seed expression depends on the
// closure's own parameters (the task index) or passes through
// SplitSeed / (*RNG).Split.
func argVariesPerTask(info *types.Info, arg ast.Expr, params map[types.Object]bool, mathxPkg string) bool {
	varies := false
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if calleeIs(info, n, mathxPkg, "SplitSeed") {
				varies = true
			}
			if fn := funcFor(info, n); fn != nil && fn.Name() == "Split" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					varies = true
				}
			}
		case *ast.Ident:
			if params[info.Uses[n]] {
				varies = true
			}
		}
		return !varies
	})
	return varies
}

// isSplitReceiver reports whether id appears as the receiver of a
// .Split(...) call — the one sanctioned use of a captured generator.
func isSplitReceiver(pass *Pass, id *ast.Ident) bool {
	// Find the parent selector by re-walking the file; the AST carries
	// no parent links, so locate the smallest SelectorExpr whose X is
	// exactly this identifier.
	found := false
	for _, f := range pass.Pkg.Files {
		if f.Pos() <= id.Pos() && id.End() <= f.End() {
			ast.Inspect(f, func(n ast.Node) bool {
				if found {
					return false
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok && x == id && sel.Sel.Name == "Split" {
					found = true
					return false
				}
				return true
			})
		}
	}
	return found
}
