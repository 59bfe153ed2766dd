package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-diagnostic convention: a seeded-violation testdata file
// marks each expected finding with
//
//	// want `regex`
//
// on the line the diagnostic lands on, or
//
//	// want:-1 `regex`
//
// with a line offset when the diagnostic's line cannot carry a comment
// of its own (driver diagnostics about //lint:ignore directives land on
// the directive's line, and a line comment cannot follow another line
// comment). The regex is matched against "[analyzer] message". Every
// diagnostic must match exactly one want and every want exactly one
// diagnostic.
var wantRe = regexp.MustCompile("// want(?::(-?[0-9]+))? `([^`]+)`")

type expectation struct {
	key     string // file:line
	re      *regexp.Regexp
	matched bool
}

// parseWants scans the sources of the loaded packages for want
// comments.
func parseWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			filename := pkg.Fset.Position(f.Pos()).Filename
			data, err := os.ReadFile(filename)
			if err != nil {
				t.Fatalf("reading %s: %v", filename, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					lineNo := i + 1
					if m[1] != "" {
						off, err := strconv.Atoi(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want offset %q", filename, lineNo, m[1])
						}
						lineNo += off
					}
					re, err := regexp.Compile(m[2])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", filename, i+1, m[2], err)
					}
					wants = append(wants, &expectation{key: fmt.Sprintf("%s:%d", filename, lineNo), re: re})
				}
			}
		}
	}
	return wants
}

// runGolden loads patterns under cfg, runs every analyzer, and checks
// the diagnostics against the want comments bijectively.
func runGolden(t *testing.T, cfg *Config, patterns ...string) Result {
	t.Helper()
	pkgs, err := Load(cfg, patterns)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	res := RunPackages(cfg, pkgs)
	wants := parseWants(t, pkgs)
	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		full := "[" + d.Analyzer + "] " + d.Message
		matched := false
		for _, w := range wants {
			if !w.matched && w.key == key && w.re.MatchString(full) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected diagnostic matching %q, got none", w.key, w.re)
		}
	}
	return res
}

// testConfig starts from the production config and neutralizes the
// parts each golden test overrides: no package is a sim package, no
// package is layering-governed, and the suppression budget is off.
func testConfig(t *testing.T) *Config {
	t.Helper()
	cfg, err := DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	cfg.SimPackages = nil
	cfg.LayeringRoot = "internal/analysis/testdata/none"
	cfg.SuppressionBudget = -1
	return cfg
}

const tdata = "internal/analysis/testdata/src"

func TestDeterminismGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.SimPackages = []string{tdata + "/determinism"}
	runGolden(t, cfg, "./"+tdata+"/determinism")
}

// TestServiceDeterminismGolden pins that the determinism analyzer
// keeps firing under the service-layer rule set internal/service is
// registered under: wall-clock reads, global rand draws, and bare
// worker goroutines are findings there too, while the injected-clock
// and blocking-worker shapes the real package uses stay clean.
func TestServiceDeterminismGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.SimPackages = []string{tdata + "/servicedet"}
	runGolden(t, cfg, "./"+tdata+"/servicedet")
}

func TestMapIterGolden(t *testing.T) {
	runGolden(t, testConfig(t), "./"+tdata+"/mapiter")
}

func TestLayeringGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.LayeringRoot = tdata + "/layering"
	cfg.AllowedDeps = map[string][]string{"a": {"sink"}, "b": {}, "sink": {}}
	cfg.Substrates = []string{"a"}
	cfg.SubstrateBans = []string{"/sink"}
	runGolden(t, cfg, "./"+tdata+"/layering/...")
}

func TestFloatEqGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.FloatEqAllow = map[string]bool{tdata + "/floateq.ExactKey": true}
	runGolden(t, cfg, "./"+tdata+"/floateq")
}

func TestTelemetryNamesGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.Catalog = &Catalog{
		Metrics:        set("registered.name"),
		MetricPrefixes: []string{"cache."},
	}
	runGolden(t, cfg, "./"+tdata+"/telemetrynames")
}

// TestHistoryNamesGolden pins that the catalog audit covers every
// constructor under a catalog the fixture brings along: an
// unregistered history.* metric is a finding, registered ones are
// clean.
func TestHistoryNamesGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.Catalog = &Catalog{
		Metrics: set("history.appends", "history.gate.regressions"),
	}
	runGolden(t, cfg, "./"+tdata+"/historynames")
}

func TestSeedHygieneGolden(t *testing.T) {
	runGolden(t, testConfig(t), "./"+tdata+"/seedhygiene")
}

func TestSuppressGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.SimPackages = []string{tdata + "/suppress"}
	res := runGolden(t, cfg, "./"+tdata+"/suppress")
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1 (the justified determinism directive)", res.Suppressed)
	}
}

// TestSuppressionBudgetTrips pins that a run carrying more well-formed
// //lint:ignore directives than the budget allows fails on its own.
func TestSuppressionBudgetTrips(t *testing.T) {
	cfg := testConfig(t)
	cfg.SimPackages = []string{tdata + "/suppress"}
	cfg.SuppressionBudget = 0
	pkgs, err := Load(cfg, []string{"./" + tdata + "/suppress"})
	if err != nil {
		t.Fatal(err)
	}
	res := RunPackages(cfg, pkgs)
	for _, d := range res.Diagnostics {
		if d.Analyzer == "driver" && strings.Contains(d.Message, "suppression budget exceeded") {
			return
		}
	}
	t.Errorf("no budget diagnostic with SuppressionBudget=0; got %d diagnostics", len(res.Diagnostics))
}

// TestCleanTree is the integration gate: the merged tree itself must
// come out of the full analyzer suite with zero findings, exactly as
// `go run ./cmd/accordionvet ./...` and the CI lint job see it. It also
// keeps the catalog honest in the other direction: every exact metric
// name registered there must still have an emit site, so a deleted
// surface cannot leave stale vocabulary behind.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; run without -short")
	}
	cfg, err := DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(cfg, []string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunPackages(cfg, pkgs).Diagnostics {
		t.Errorf("clean tree violated: %s", d)
	}

	emitted := emittedNames(cfg, pkgs)
	for name := range cfg.Catalog.Metrics {
		if !emitted[name] {
			t.Errorf("catalog metric %q has no emit site under ./internal/... or ./cmd/...", name)
		}
	}
}

// emittedNames collects every statically resolved exact name handed to
// a registration point in pkgs.
func emittedNames(cfg *Config, pkgs []*Package) map[string]bool {
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: TelemetryNamesAnalyzer, Cfg: cfg, Pkg: pkg, report: func(Diagnostic) {}}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !emitSite(pass, call) {
					return true
				}
				if lits, isPrefix, ok := resolveName(pass, call.Args[0]); ok && !isPrefix {
					for _, lit := range lits {
						seen[lit] = true
					}
				}
				return true
			})
		}
	}
	return seen
}
