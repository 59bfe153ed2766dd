package history

import (
	"math"
	"strings"
	"testing"

	"repro/internal/provenance"
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

func TestAddManifest(t *testing.T) {
	r := NewRecord("accordion", "run")
	man := &provenance.Manifest{
		VCSRevision: "deadbeef", VCSModified: true, WallMs: 1234,
		Args: []string{"-chips", "8", "fig5a"},
		Runners: []provenance.Runner{
			{ID: "fig5a", WallMs: 900},
			{ID: "fig9", WallMs: 300, Error: "boom"},
		},
		Caches: []provenance.Cache{
			{Name: "experiments.Kernels", Hits: 9, Misses: 1, HitRate: 0.9},
			{Name: "experiments.Idle", Hits: 0, Misses: 0},
		},
	}
	r.AddManifest(man)
	if r.VCSRevision != "deadbeef" || !r.VCSDirty || r.WallMs != 1234 {
		t.Errorf("identity not lifted: %+v", r)
	}
	if r.Metrics["runner.fig5a.wall_ms"] != 900 {
		t.Errorf("runner wall time = %v", r.Metrics["runner.fig5a.wall_ms"])
	}
	if _, ok := r.Metrics["runner.fig9.wall_ms"]; ok {
		t.Error("failed runner's wall time harvested as a trend point")
	}
	if r.Metrics["cache.experiments.Kernels.hit_rate"] != 0.9 {
		t.Error("manifest cache rate missing")
	}
	if _, ok := r.Metrics["cache.experiments.Idle.hit_rate"]; ok {
		t.Error("idle cache harvested")
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

// TestDirectionsCoverHarvest is the staleness audit the direction
// table's doc comment promises: every pattern in DefaultDirections
// must match at least one metric a canonical harvested record
// actually produces, so renaming a surface breaks this test instead
// of silently un-gating a family.
func TestDirectionsCoverHarvest(t *testing.T) {
	r := NewRecord("bench_service", "bench")
	snap := sampleTelemetry()
	snap.Series = []telemetry.SeriesSnapshot{
		{Name: "chip.fmax_ghz", Count: 100, Mean: 1.8, Std: 0.1, CI95: 0.02},
	}
	r.AddTelemetry(snap)
	r.AddManifest(&provenance.Manifest{Runners: []provenance.Runner{{ID: "fig5a", WallMs: 900}}})
	if err := r.AddBenchJSON([]byte(sampleBench)); err != nil {
		t.Fatal(err)
	}
	// Families only the go-test harnesses produce.
	r.Set("bench.results.0.bytes_op", 4096)
	r.Set("bench.speedup_vs_serial.j4.speedup", 3.1)
	for _, d := range DefaultDirections() {
		matched := false
		for name := range r.Metrics {
			if globMatch(d.Pattern, name) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("direction %q matches no harvested metric; the table went stale", d.Pattern)
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
	r := testRecord("accordiond", nil)
	r.Kind = "batch"
	r.GOMAXPROCS = 2
	if got := r.CompatKey(); got != "accordiond/batch/j2" {
		t.Errorf("CompatKey = %q", got)
	}
	if !strings.HasPrefix(r.CompatKey(), r.Tool) {
		t.Error("key does not lead with tool")
	}
}
