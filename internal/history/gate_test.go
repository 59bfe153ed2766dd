package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jitter returns a deterministic pseudo-noise factor in
// [1-amp, 1+amp] from a tiny LCG, so the "20 jittered records" case
// is reproducible without a seed flag.
func jitter(i int, amp float64) float64 {
	x := uint64(i)*6364136223846793005 + 1442695040888963407
	x ^= x >> 33
	u := float64(x%10000) / 10000 // [0,1)
	return 1 + amp*(2*u-1)
}

// baselineRecords builds n comparable records whose gated metrics
// jitter within ±amp of their nominal values.
func baselineRecords(n int, amp float64) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		r := testRecord("accordion", map[string]float64{
			"hist.service.latency_ns.p99":        2e6 * jitter(i, amp),
			"cache.experiments.Kernels.hit_rate": 0.90 * jitter(i+1000, amp),
			"counter.service.requests":           100, // no direction: never gated
		})
		recs = append(recs, r)
	}
	return recs
}

// TestGateFlagsSyntheticRegression is the acceptance case: a 2×
// latency jump over a stable baseline must be flagged.
func TestGateFlagsSyntheticRegression(t *testing.T) {
	recs := baselineRecords(20, 0.02)
	bad := testRecord("accordion", map[string]float64{
		"hist.service.latency_ns.p99":        4e6, // 2× the ~2e6 baseline
		"cache.experiments.Kernels.hit_rate": 0.90,
	})
	recs = append(recs, bad)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions() != 1 {
		t.Fatalf("Regressions = %d, want 1; findings %+v", rep.Regressions(), rep.Findings)
	}
	f := rep.Findings[0]
	if f.Metric != "hist.service.latency_ns.p99" || !f.Regression || f.Worse != "up" {
		t.Errorf("finding = %+v", f)
	}
	if f.RelDelta < 0.8 {
		t.Errorf("RelDelta = %v, want ~1.0 for a 2× jump", f.RelDelta)
	}
}

// TestGateFlagsHitRateDrop pins the down-is-bad direction: a falling
// cache hit rate regresses even though the number went down.
func TestGateFlagsHitRateDrop(t *testing.T) {
	recs := baselineRecords(20, 0.01)
	bad := testRecord("accordion", map[string]float64{
		"hist.service.latency_ns.p99":        2e6,
		"cache.experiments.Kernels.hit_rate": 0.30,
	})
	recs = append(recs, bad)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Metric == "cache.experiments.Kernels.hit_rate" && f.Regression && f.Worse == "down" {
			found = true
		}
	}
	if !found {
		t.Errorf("hit-rate drop not flagged; findings %+v", rep.Findings)
	}
}

// TestGateNoFalsePositiveOnJitter is the acceptance case: across ≥20
// jittered-within-noise records, a newest record drawn from the same
// jitter never flags.
func TestGateNoFalsePositiveOnJitter(t *testing.T) {
	recs := baselineRecords(24, 0.02)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions() != 0 {
		t.Errorf("jittered re-run flagged: %+v", rep.Findings)
	}
	if rep.Compared == 0 {
		t.Error("gate compared nothing; baseline plumbing broken")
	}
}

// TestGateIdenticalRerunPasses pins the deterministic-metric case: a
// constant baseline has zero band, and an identical re-run sits
// exactly on the mean — the margin keeps that a pass, not a
// zero-tolerance trip.
func TestGateIdenticalRerunPasses(t *testing.T) {
	recs := baselineRecords(10, 0) // amp 0: byte-identical runs
	recs = append(recs, baselineRecords(1, 0)...)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions() != 0 {
		t.Errorf("identical re-run flagged: %+v", rep.Findings)
	}
}

// TestGateImprovementIsInformational pins that a move past the band
// in the good direction is reported but never fatal.
func TestGateImprovementIsInformational(t *testing.T) {
	recs := baselineRecords(20, 0.02)
	better := testRecord("accordion", map[string]float64{
		"hist.service.latency_ns.p99":        1e6, // halved
		"cache.experiments.Kernels.hit_rate": 0.90,
	})
	recs = append(recs, better)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions() != 0 {
		t.Fatalf("improvement counted as regression: %+v", rep.Findings)
	}
	if len(rep.Findings) == 0 || rep.Findings[0].Regression {
		t.Errorf("improvement not reported: %+v", rep.Findings)
	}
}

// TestGateIgnoresOtherIdentity pins the comparability rule: records
// from a different tool or GOMAXPROCS never enter the baseline, so a
// fresh identity passes with a note instead of comparing apples to
// a different machine's oranges.
func TestGateIgnoresOtherIdentity(t *testing.T) {
	recs := baselineRecords(20, 0.02)
	other := testRecord("accordion", map[string]float64{
		"hist.service.latency_ns.p99": 40e6, // 20× — but measured at j8
	})
	other.GOMAXPROCS = 8
	recs = append(recs, other)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions() != 0 || rep.Note == "" {
		t.Errorf("cross-identity record gated: note=%q findings=%+v", rep.Note, rep.Findings)
	}
}

// TestGateShortBaselineSilent pins minBaseline: with two records
// total there is one baseline observation, and the gate stays silent.
func TestGateShortBaselineSilent(t *testing.T) {
	recs := baselineRecords(2, 0.02)
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared != 0 || rep.Regressions() != 0 || rep.Note == "" {
		t.Errorf("short baseline gated: %+v", rep)
	}
}

// TestGateReplaysCommittedRegressionSet replays the checked-in
// synthetic-regression store (the same one CI's history-gate job
// asserts fails) and requires the gate to flag it.
func TestGateReplaysCommittedRegressionSet(t *testing.T) {
	st := Store{Dir: filepath.Join("testdata", "regressed")}
	recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions() == 0 {
		t.Fatalf("committed regression set not flagged: %+v", rep)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "REGRESSED") || !strings.Contains(b.String(), "FAIL") {
		t.Errorf("text report missing verdicts:\n%s", b.String())
	}
}

// TestGateFlagsBenchmarkRegression replays the committed benchmark
// store: three comparable benchmark/bench/j2 records of the population
// workload, as `accordionhist append -bench` writes them, then a
// fourth whose op_p50_ms doubled and items_per_s halved. Both must be
// flagged, each in the sense BENCHMARK.json's `better` gives, and
// nothing else.
func TestGateFlagsBenchmarkRegression(t *testing.T) {
	recs, err := Store{Dir: filepath.Join("testdata", "regressed_bench")}.Load()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Key != "benchmark/bench/j2" || rep.BaselineN != 3 || rep.Compared == 0 {
		t.Fatalf("gate judged %s against %d records and compared %d metrics", rep.Key, rep.BaselineN, rep.Compared)
	}
	want := map[string]string{
		"bench.population.metrics.op_p50_ms.value":   "up",
		"bench.population.metrics.items_per_s.value": "down",
	}
	for _, f := range rep.Findings {
		if f.Regression && want[f.Metric] == f.Worse {
			delete(want, f.Metric)
		} else if f.Regression {
			t.Errorf("unexpected regression %+v", f)
		}
	}
	if rep.Regressions() != 2 || len(want) > 0 {
		t.Errorf("%d regressions; not flagged: %v; findings %+v", rep.Regressions(), want, rep.Findings)
	}
}

// TestGateEmptyStoreErrors pins that checking nothing is an error,
// not a pass.
func TestGateEmptyStoreErrors(t *testing.T) {
	if _, err := Check(nil); err == nil {
		t.Error("Check(nil) passed")
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"hist.*.p99", "hist.service.latency_ns.p99", true},
		{"hist.*.p99", "hist.service.latency_ns.p50", false},
		{"cache.*.hit_rate", "cache.experiments.Kernels.hit_rate", true},
		{"bench.*.metrics.*.value", "bench.regen.metrics.rms.canneal.run_ms.value", true},
		{"bench.*.metrics.*.value", "bench.regen.metrics.op_p50_ms.unit", false},
		{"exact.name", "exact.name", true},
		{"exact.name", "exact.names", false},
		{"*", "anything.at.all", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.name); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

// TestGateReportJSONShape pins the machine-readable report the CI job
// and accordionhist -json consume.
func TestGateReportJSONShape(t *testing.T) {
	recs := baselineRecords(20, 0.02)
	recs = append(recs, testRecord("accordion", map[string]float64{
		"hist.service.latency_ns.p99": 4e6,
	}))
	rep, err := Check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Key != "accordion/run/j1" || rep.BaselineN != 20 {
		t.Errorf("report identity = %q baseline=%d", rep.Key, rep.BaselineN)
	}
	if os.Getenv("DEBUG_GATE") != "" {
		rep.WriteText(os.Stderr)
	}
}
