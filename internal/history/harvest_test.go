package history

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// sampleTelemetry builds a representative snapshot without touching
// the process-wide registry.
func sampleTelemetry() telemetry.Snapshot {
	return telemetry.Snapshot{
		Enabled: true,
		Counters: []telemetry.CounterSnapshot{
			{Name: "service.requests", Value: 128},
			{Name: "cache.experiments.Kernels.hits", Value: 90},
			{Name: "cache.experiments.Kernels.misses", Value: 10},
			{Name: "cache.experiments.MeasuredFronts.hits", Value: 0},
			{Name: "cache.experiments.MeasuredFronts.misses", Value: 2},
		},
		Gauges: []telemetry.GaugeSnapshot{{Name: "service.inflight", Value: 3}},
		Histograms: []telemetry.HistogramSnapshot{
			{Name: "service.latency_ns", Unit: "ns", Count: 100, Mean: 1.5e6,
				P50: 1_200_000, P95: 2_500_000, P99: 3_000_000, Max: 4_000_000},
			{Name: "empty.histogram", Count: 0},
		},
	}
}

func TestAddTelemetry(t *testing.T) {
	r := NewRecord("accordion", "run")
	r.AddTelemetry(sampleTelemetry())
	want := map[string]float64{
		"counter.service.requests":                  128,
		"gauge.service.inflight":                    3,
		"hist.service.latency_ns.p99":               3_000_000,
		"hist.service.latency_ns.mean":              1.5e6,
		"cache.experiments.Kernels.hit_rate":        0.90,
		"cache.experiments.MeasuredFronts.hit_rate": 0,
	}
	for name, v := range want {
		if got, ok := r.Metrics[name]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, v)
		}
	}
	if _, ok := r.Metrics["hist.empty.histogram.count"]; ok {
		t.Error("empty histogram harvested")
	}
}

// TestAddTelemetrySeries: a snapshot's series land under the record
// names convergence statistics have always had, converge.<series>.*,
// with CI95 and std only once two observations make them meaningful.
func TestAddTelemetrySeries(t *testing.T) {
	r := NewRecord("accordion", "run")
	r.AddTelemetry(telemetry.Snapshot{Series: []telemetry.SeriesSnapshot{
		{Name: "chip.fmax_ghz", Count: 100, Mean: 1.8, Std: 0.1, CI95: 0.02},
		{Name: "chip.lonely", Count: 1, Mean: 3.0},
		{Name: "chip.unseen", Count: 0},
	}})
	for name, want := range map[string]float64{
		"converge.chip.fmax_ghz.count": 100,
		"converge.chip.fmax_ghz.mean":  1.8,
		"converge.chip.fmax_ghz.std":   0.1,
		"converge.chip.fmax_ghz.ci95":  0.02,
	} {
		if got, ok := r.Metrics[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if _, ok := r.Metrics["converge.chip.lonely.ci95"]; ok {
		t.Error("single-observation CI harvested (meaningless)")
	}
	if r.Metrics["converge.chip.lonely.mean"] != 3.0 {
		t.Error("single-observation mean missing")
	}
	if _, ok := r.Metrics["converge.chip.unseen.mean"]; ok {
		t.Error("empty series harvested")
	}
}

const sampleBench = `{
  "vcs_revision": "cafe1234",
  "vcs_dirty": false,
  "gomaxprocs": 4,
  "go": "go1.24.0",
  "sweep": {"p99_ms": 12.5, "throughput_rps": 80.2, "ok": 128},
  "caches_warm": {"experiments.MeasuredFronts": {"hits": 2, "misses": 2, "hit_rate": 0.5}},
  "determinism": {"identical": true},
  "results": [{"name": "BenchmarkRunPopulation", "ns_op": 52000000, "allocs_op": 1200}]
}`

func TestAddBenchJSON(t *testing.T) {
	r := NewRecord("bench_service", "bench")
	if err := r.AddBenchJSON([]byte(sampleBench)); err != nil {
		t.Fatal(err)
	}
	if r.VCSRevision != "cafe1234" || r.VCSDirty || r.GOMAXPROCS != 4 {
		t.Errorf("bench identity not lifted: %+v", r)
	}
	want := map[string]float64{
		"bench.sweep.p99_ms":                                    12.5,
		"bench.sweep.throughput_rps":                            80.2,
		"bench.caches_warm.experiments.MeasuredFronts.hit_rate": 0.5,
		"bench.determinism.identical":                           1,
		"bench.results.0.ns_op":                                 52000000,
		"bench.results.0.allocs_op":                             1200,
	}
	for name, v := range want {
		if got := r.Metrics[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if _, ok := r.Metrics["bench.go"]; ok {
		t.Error("string leaf harvested as a metric")
	}
	if err := r.AddBenchJSON([]byte("not json")); err == nil {
		t.Error("malformed bench blob accepted")
	}
}

// TestAddBenchJSONOwnsDirtyBit: a result that stamps a revision also
// stamps the dirty bit, clean when it carries no vcs_dirty, whatever
// the ingesting binary's own build said.
func TestAddBenchJSONOwnsDirtyBit(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		want bool
	}{
		{`{"vcs_revision":"cafe1234","gomaxprocs":2}`, false},
		{`{"vcs_revision":"cafe1234","vcs_dirty":true}`, true},
		{`{"vcs_revision":"cafe1234","vcs_dirty":false}`, false},
	} {
		r := NewRecord("benchmark", "bench")
		r.VCSRevision, r.VCSDirty = "ffff0000", true
		if err := r.AddBenchJSON([]byte(tc.doc)); err != nil {
			t.Fatal(err)
		}
		if r.VCSRevision != "cafe1234" || r.VCSDirty != tc.want {
			t.Errorf("%s: revision %q dirty %v, want cafe1234 dirty %v", tc.doc, r.VCSRevision, r.VCSDirty, tc.want)
		}
	}
}

// sampleResult is a traced benchmark result document, shaped as
// `benchmark/run.sh --out` writes it: run facts at the top, then one
// report per workload whose metrics hold the end-to-end and per-layer
// numbers.
const sampleResult = `{
  "vcs_revision": "cafe1234",
  "gomaxprocs": 2,
  "nproc": 2,
  "seed": 1,
  "traced": true,
  "population": {
    "correct": true,
    "attempted": 52,
    "failed": 0,
    "metrics": {
      "items_per_s": {"value": 2527.7, "unit": "1/s"},
      "op_p50_ms": {"value": 194.2, "unit": "ms"},
      "core.solver.new_us": {"value": 446, "unit": "us"}
    },
    "n": 51,
    "output_sha256": "0123abcd",
    "span_self_ms": {"chip.sample": 120.5}
  }
}`

// TestDirectionsCoverHarvest is the staleness audit the direction
// table's doc comment promises: every pattern must match at least one
// metric that the live writers harvest — an accordion run's telemetry
// and runner times, and a benchmark result — so renaming a surface
// breaks this test instead of silently un-gating a family.
func TestDirectionsCoverHarvest(t *testing.T) {
	r := NewRecord("accordion", "run")
	snap := sampleTelemetry()
	snap.Series = []telemetry.SeriesSnapshot{
		{Name: "chip.fmax_ghz", Count: 100, Mean: 1.8, Std: 0.1, CI95: 0.02},
	}
	r.AddTelemetry(snap)
	r.Set("runner.fig5a.wall_ms", 900)
	if err := r.AddBenchJSON([]byte(sampleResult)); err != nil {
		t.Fatal(err)
	}
	for _, d := range directions {
		matched := false
		for name := range r.Metrics {
			if globMatch(d.pattern, name) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("direction %q matches no harvested metric; the table went stale", d.pattern)
		}
	}
}

// TestDirectionsFollowBenchmark: every end-to-end and per-layer metric
// BENCHMARK.json declares, harvested from any of its workloads as
// bench.<workload>.metrics.<name>.value, is gated in the sense its
// `better` gives: up is bad for "lower", down is bad for "higher".
func TestDirectionsFollowBenchmark(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	metrics := append(bench.EndToEnd, bench.PerLayer...)
	if len(bench.Workloads) == 0 || len(metrics) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads and %d metrics", len(bench.Workloads), len(metrics))
	}
	for _, w := range bench.Workloads {
		for _, m := range metrics {
			name := "bench." + w.Name + ".metrics." + m.Name + ".value"
			want := map[string]string{"lower": "up", "higher": "down"}[m.Better]
			got, gated := senseOf(name)
			if !gated || want == "" || got.String() != want {
				t.Errorf("%s (better %q): gated %v, worse %v", name, m.Better, gated, got)
			}
		}
	}
}

// TestRecordSetDropsNonFinite pins that NaN/Inf never reach the store
// (encoding/json would refuse the whole record).
func TestRecordSetDropsNonFinite(t *testing.T) {
	r := NewRecord("accordion", "run")
	r.Set("bad.nan", math.NaN())
	r.Set("bad.inf", math.Inf(1))
	r.Set("good", 1)
	if len(r.Metrics) != 1 {
		t.Errorf("Metrics = %v", r.Metrics)
	}
}

// TestCompatKey pins the identity format docs and reports print.
func TestCompatKey(t *testing.T) {
	r := testRecord("benchmark", nil)
	r.Kind = "bench"
	r.GOMAXPROCS = 2
	if got := r.CompatKey(); got != "benchmark/bench/j2" {
		t.Errorf("CompatKey = %q", got)
	}
	if !strings.HasPrefix(r.CompatKey(), r.Tool) {
		t.Error("key does not lead with tool")
	}
}
