package history

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRecords is a fixed store exercising every renderer feature:
// trended gated metrics, a metric absent from one record (sparkline
// gap), and an other-identity record (skipped count).
func goldenRecords() []Record {
	recs := []Record{}
	p99 := []float64{2.00e6, 2.05e6, 1.98e6, 2.10e6, 4.20e6}
	hit := []float64{0.88, 0.90, 0.91, 0.89, 0.90}
	for i := range p99 {
		r := Record{Schema: Schema, Tool: "accordion", Kind: "run", GOMAXPROCS: 1,
			Metrics: map[string]float64{
				"hist.service.latency_ns.p99":        p99[i],
				"cache.experiments.Kernels.hit_rate": hit[i],
				"counter.service.requests":           128, // ungated: stays out of the default report
			}}
		if i != 2 {
			r.Metrics["runner.fig5a.wall_ms"] = 400 + 10*float64(i)
		}
		recs = append(recs, r)
	}
	other := Record{Schema: Schema, Tool: "bench_parallel", Kind: "bench", GOMAXPROCS: 4,
		Metrics: map[string]float64{"bench.results.0.ns_op": 5e7}}
	recs = append(recs[:4], other, recs[4])
	recs[len(recs)-1].VCSRevision = "0123456789abcdef0123"
	return recs
}

// TestGoldenReports pins the exact bytes of the text trend report for
// the fixed record set above, the same contract the atlas exports live
// under. Regenerate with UPDATE_GOLDEN=1 go test ./internal/history.
func TestGoldenReports(t *testing.T) {
	const name = "golden_report.txt"
	t.Run(name, func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteTextReport(&buf, goldenRecords(), ReportOptions{}); err != nil {
			t.Fatal(err)
		}
		got := buf.Bytes()
		path := filepath.Join("testdata", name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden; rerun with UPDATE_GOLDEN=1 and review the diff\ngot:\n%s", name, got)
		}
	})
}

// TestReportStructure sanity-checks renderer behavior the goldens
// alone would not explain if they drifted: gaps, skip counts, and the
// ungated-metric exclusion.
func TestReportStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTextReport(&buf, goldenRecords(), ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "accordion/run/j1") {
		t.Errorf("report lacks identity key:\n%s", out)
	}
	if !strings.Contains(out, "1 other-identity record(s) skipped") {
		t.Errorf("cross-identity record not reported as skipped:\n%s", out)
	}
	if !strings.Contains(out, "·") {
		t.Errorf("sparkline gap marker missing for absent metric:\n%s", out)
	}
	if strings.Contains(out, "counter.service.requests") {
		t.Errorf("ungated metric leaked into the default report:\n%s", out)
	}

	// Explicit metric globs override the gated-set default.
	buf.Reset()
	err := WriteTextReport(&buf, goldenRecords(), ReportOptions{Metrics: []string{"counter.*"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "counter.service.requests") {
		t.Errorf("explicit glob did not select the metric:\n%s", buf.String())
	}
}
