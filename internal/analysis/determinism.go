package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the reproduction's core contract: a
// simulation result is a pure function of (configuration, seed). In
// the configured simulation packages it forbids
//
//   - time.Now / time.Since — wall-clock reads make runs
//     unrepeatable; timing belongs to a telemetry.Stage (whose
//     disabled path never touches the clock) or to callers passing
//     times in,
//   - the global math/rand top-level functions — the process-wide
//     source is seeded once per process and shared across goroutines,
//     so any draw perturbs every other stream; all randomness must
//     flow through *mathx.RNG derived via Split/SplitSeed,
//   - bare go statements — ad-hoc goroutines reintroduce scheduling
//     nondeterminism the bounded pool in internal/parallel was built
//     to contain (submission order, panic capture, deterministic
//     fan-in live there).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, global math/rand, and bare goroutines in simulation packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !pass.Cfg.isSimPackage(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "bare go statement in simulation package %s; use the deterministic pool in internal/parallel", pass.Pkg.Path)
			case *ast.CallExpr:
				fn := funcFor(info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" || fn.Name() == "Since" {
						pass.Reportf(n.Pos(), "time.%s in simulation package %s; wall clocks break run repeatability — time it with a telemetry.Stage or take times as inputs", fn.Name(), pass.Pkg.Path)
					}
				case "math/rand", "math/rand/v2":
					// Constructors (New, NewSource, ...) build local,
					// seedable generators and are fine; the package-level
					// draws hit the shared global source.
					if fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
						pass.Reportf(n.Pos(), "global %s.%s in simulation package %s; draws from the shared source are order-dependent — use *mathx.RNG with Split/SplitSeed", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path)
					}
				}
			}
			return true
		})
	}
}
