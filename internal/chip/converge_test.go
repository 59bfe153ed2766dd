package chip

import (
	"context"
	"testing"

	"repro/internal/converge"
	"repro/internal/telemetry"
)

// TestPopulationConvergence: a fixed-seed population drawn under a
// converge.MonitorContext reports CI95 half-widths for all four chip
// metrics, and the estimators see exactly one observation per chip.
func TestPopulationConvergence(t *testing.T) {
	converge.Reset()
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	if _, err := f.PopulationCtx(converge.MonitorContext(context.Background()), 2014, n); err != nil {
		t.Fatal(err)
	}
	counts := seriesCounts()
	for _, name := range chipSeries {
		if counts[name] != n {
			t.Errorf("%s: count = %d, want %d", name, counts[name], n)
		}
	}
	for _, s := range converge.Capture().Series {
		if counts[s.Name] == 0 {
			continue
		}
		if s.CI95 <= 0 {
			t.Errorf("%s: ci95 half-width = %v, want > 0", s.Name, s.CI95)
		}
		if s.Mean <= 0 {
			t.Errorf("%s: mean = %v, want > 0", s.Name, s.Mean)
		}
	}
}

// TestPopulationUnmonitored: with telemetry on but no monitor context,
// a population observes no chip, and a draw allocates exactly what a
// plain Sample does: no chip pays for SummaryMetrics unasked, which is
// what keeps accordiond and library callers off it.
func TestPopulationUnmonitored(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	defer telemetry.Reset()
	converge.Reset()
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.PopulationCtx(context.Background(), 2014, 6); err != nil {
		t.Fatal(err)
	}
	for name, n := range seriesCounts() {
		if n != 0 {
			t.Errorf("%s observed %d chips without a monitor context", name, n)
		}
	}
	ctx := context.Background()
	plain := testing.AllocsPerRun(20, func() { f.Sample(7) })
	viaCtx := testing.AllocsPerRun(20, func() { f.SampleCtx(ctx, 7) })
	if viaCtx != plain {
		t.Errorf("an unmonitored SampleCtx allocates %.0f objects, a plain Sample %.0f", viaCtx, plain)
	}
	monitored := converge.MonitorContext(ctx)
	if m := testing.AllocsPerRun(20, func() { f.SampleCtx(monitored, 7) }); m <= plain {
		t.Errorf("a monitored SampleCtx allocates %.0f objects, want more than a plain Sample's %.0f", m, plain)
	}
}

// chipSeries are the four per-chip metrics SampleCtx observes.
var chipSeries = []string{"chip.fmax_ghz", "chip.vddmin_v", "chip.power_w", "chip.err_rate"}

// seriesCounts reads the chip series' observation counts.
func seriesCounts() map[string]int64 {
	counts := map[string]int64{}
	for _, name := range chipSeries {
		counts[name] = 0
	}
	for _, s := range converge.Capture().Series {
		if _, ok := counts[s.Name]; ok {
			counts[s.Name] = s.Count
		}
	}
	return counts
}

// TestSampleCtxIdentical: the observability wrapper returns the same
// chip bits as the plain Sample.
func TestSampleCtxIdentical(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := f.Sample(7)
	b := f.SampleCtx(converge.MonitorContext(context.Background()), 7)
	if a.VddNTV() != b.VddNTV() || len(a.Cores) != len(b.Cores) {
		t.Fatal("SampleCtx chip differs from Sample chip")
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d differs between Sample and SampleCtx", i)
		}
	}
}

// TestSummaryMetricsDeterministic: same seed, same summary.
func TestSummaryMetricsDeterministic(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s1 := f.Sample(42).SummaryMetrics()
	s2 := f.Sample(42).SummaryMetrics()
	if s1 != s2 {
		t.Fatalf("summaries differ: %+v vs %+v", s1, s2)
	}
	if s1.FmaxGHz <= 0 || s1.VddMINV <= 0 || s1.PowerW <= 0 || s1.ErrRate < 0 {
		t.Fatalf("summary not sane: %+v", s1)
	}
}
