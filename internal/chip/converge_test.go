package chip

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// chipSeries are the four per-chip series SampleCtx observes.
var chipSeries = []*telemetry.Series{serFmax, serVddMIN, serPower, serErrRate}

// monitoredRun turns telemetry on with every metric zeroed and returns
// a fresh traced context, which monitors its chips, and the factory
// under test.
func monitoredRun(t *testing.T) (context.Context, *Factory) {
	t.Helper()
	t.Cleanup(telemetry.SetEnabled(true))
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return telemetry.TraceContext(context.Background()), f
}

// TestPopulationConvergence: a fixed-seed population drawn under a
// telemetry.TraceContext reports CI95 half-widths for all four chip
// metrics, and the series see exactly one observation per chip.
func TestPopulationConvergence(t *testing.T) {
	ctx, f := monitoredRun(t)
	const n = 12
	if _, err := f.PopulationCtx(ctx, 2014, n); err != nil {
		t.Fatal(err)
	}
	captured := telemetry.Capture().Series
	if len(captured) != len(chipSeries) {
		t.Fatalf("captured %d series, want the %d chip series", len(captured), len(chipSeries))
	}
	for _, s := range captured {
		if s.Count != n {
			t.Errorf("%s: count = %d, want %d", s.Name, s.Count, n)
		}
		if s.CI95 <= 0 {
			t.Errorf("%s: ci95 half-width = %v, want > 0", s.Name, s.CI95)
		}
		if s.Mean <= 0 {
			t.Errorf("%s: mean = %v, want > 0", s.Name, s.Mean)
		}
	}
}

// TestMonitoredChipCountedOnce: drawing the same population twice under
// one traced context, as fig5a and the population runner do in one
// accordion run, observes each distinct chip once.
func TestMonitoredChipCountedOnce(t *testing.T) {
	ctx, f := monitoredRun(t)
	const n = 8
	for i := 0; i < 2; i++ {
		if _, err := f.PopulationCtx(ctx, 2014, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range chipSeries {
		if s.Count() != n {
			t.Errorf("%s: %d observations of %d distinct chips", s.Name(), s.Count(), n)
		}
	}
}

// TestChipSeriesInTelemetry: after a traced population draw the four
// chip series are in the telemetry snapshot, each in its unit.
func TestChipSeriesInTelemetry(t *testing.T) {
	ctx, f := monitoredRun(t)
	const n = 4
	if _, err := f.PopulationCtx(ctx, 7, n); err != nil {
		t.Fatal(err)
	}
	captured := map[string]telemetry.SeriesSnapshot{}
	for _, s := range telemetry.Capture().Series {
		captured[s.Name] = s
	}
	for _, want := range []struct{ name, unit string }{
		{"chip.fmax_ghz", "GHz"}, {"chip.vddmin_v", "V"}, {"chip.power_w", "W"}, {"chip.err_rate", "p/cycle"},
	} {
		s, ok := captured[want.name]
		if !ok || s.Count != n || s.Unit != want.unit {
			t.Errorf("captured %s = %+v (present=%v), want %d observations in %s", want.name, s, ok, n, want.unit)
		}
	}
}

// TestPopulationUnmonitored: with telemetry on but no traced context,
// a population observes no chip, and a draw allocates exactly what a
// plain Sample does: no chip pays for SummaryMetrics unasked, which is
// what keeps accordiond and library callers off it.
func TestPopulationUnmonitored(t *testing.T) {
	_, f := monitoredRun(t)
	ctx := context.Background()
	if _, err := f.PopulationCtx(ctx, 2014, 6); err != nil {
		t.Fatal(err)
	}
	for _, s := range chipSeries {
		if n := s.Count(); n != 0 {
			t.Errorf("%s observed %d chips without a traced context", s.Name(), n)
		}
	}
	plain := allocsPerDraw(func() { f.Sample(7) })
	if viaCtx := allocsPerDraw(func() { f.SampleCtx(ctx, 7) }); viaCtx != plain {
		t.Errorf("an unmonitored SampleCtx allocates %d objects, a plain Sample %d", viaCtx, plain)
	}
	// A fresh traced context per draw, so every draw is a first draw.
	if m := allocsPerDraw(func() { f.SampleCtx(telemetry.TraceContext(ctx), 7) }); m <= plain {
		t.Errorf("a traced SampleCtx allocates %d objects, want more than a plain Sample's %d", m, plain)
	}
}

// allocsPerDraw is testing.AllocsPerRun(20, draw) counting only the
// heap objects made under draw: the mean count per call, rounded down,
// after one warm-up call. It reads a memory profile that records every
// allocation and counts the objects allocated under draws, so no other
// goroutine's allocations land in the count.
func allocsPerDraw(draw func()) int64 {
	const runs = 20
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	draws(1, draw)
	before := drawObjects()
	draws(runs, draw)
	return (drawObjects() - before) / runs
}

// draws calls draw n times; drawObjects counts the objects allocated
// under its frame, which keeps the profile reading's own out.
//
//go:noinline
func draws(n int, draw func()) {
	for i := 0; i < n; i++ {
		draw()
	}
}

// drawObjects sums the objects allocated so far under draws, after a
// collection publishes the profile.
func drawObjects() int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var objects int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasSuffix(fr.Function, "chip.draws") {
				objects += r.AllocObjects
				break
			}
		}
	}
	return objects
}

// TestMonitoredTelemetryOff: a traced context asks nothing of a
// process whose telemetry is off: the draw observes no chip and
// allocates exactly what a plain Sample does.
func TestMonitoredTelemetryOff(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	telemetry.Reset()
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.TraceContext(context.Background())
	if _, err := f.PopulationCtx(ctx, 2014, 4); err != nil {
		t.Fatal(err)
	}
	for _, s := range chipSeries {
		if n := s.Count(); n != 0 {
			t.Errorf("%s observed %d chips with telemetry off", s.Name(), n)
		}
	}
	plain := testing.AllocsPerRun(20, func() { f.Sample(7) })
	if m := testing.AllocsPerRun(20, func() { f.SampleCtx(ctx, 7) }); m != plain {
		t.Errorf("a traced SampleCtx with telemetry off allocates %.0f objects, a plain Sample %.0f", m, plain)
	}
}

// TestSampleCtxIdentical: the observability wrapper returns the same
// chip bits as the plain Sample.
func TestSampleCtxIdentical(t *testing.T) {
	ctx, f := monitoredRun(t)
	a := f.Sample(7)
	b := f.SampleCtx(ctx, 7)
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
