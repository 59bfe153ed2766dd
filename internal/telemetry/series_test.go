package telemetry

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/mathx"
)

// seriesSnap reads one series out of a Capture.
func seriesSnap(t *testing.T, name string) SeriesSnapshot {
	t.Helper()
	for _, s := range Capture().Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing from the capture", name)
	return SeriesSnapshot{}
}

// TestSeriesStatistics pins a series' snapshot against the closed form
// on a small fixed sample.
func TestSeriesStatistics(t *testing.T) {
	defer SetEnabled(true)()
	s := GetSeries("test.series.stats", "x")
	s.reset()
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		s.Observe(v)
	}
	got := seriesSnap(t, "test.series.stats")
	if got.Count != int64(len(vals)) || got.Unit != "x" {
		t.Fatalf("count/unit = %d/%q, want %d/x", got.Count, got.Unit, len(vals))
	}
	if math.Abs(got.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", got.Mean)
	}
	// Sample std of the classic example: sqrt(32/7).
	wantStd := math.Sqrt(32.0 / 7.0)
	if math.Abs(got.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", got.Std, wantStd)
	}
	wantCI := 1.959963984540054 * wantStd / math.Sqrt(8)
	if math.Abs(got.CI95-wantCI) > 1e-12 {
		t.Fatalf("ci95 = %v, want %v", got.CI95, wantCI)
	}
	if math.Abs(got.RelCI95-wantCI/5) > 1e-12 {
		t.Fatalf("rel ci95 = %v, want %v", got.RelCI95, wantCI/5)
	}
	if got.Min != 2 || got.Max != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", got.Min, got.Max)
	}
}

// TestMonitored: a key is monitored exactly when telemetry is on, the
// context descends from a TraceContext, and no earlier call under that
// TraceContext claimed the key; a fresh TraceContext inherits no keys,
// and asking an untraced context, which never monitors, costs no
// allocation.
func TestMonitored(t *testing.T) {
	type key struct{}
	plain := context.WithValue(context.Background(), key{}, 1)
	run := TraceContext(context.Background())
	child := context.WithValue(run, key{}, 1)

	restore := SetEnabled(false)
	if Monitored(child, 7) {
		t.Fatal("a traced context reports monitored while telemetry is off")
	}
	restore()

	defer SetEnabled(true)()
	if Monitored(plain, 7) {
		t.Fatal("an untraced context reports monitored")
	}
	if !Monitored(child, 7) {
		t.Fatal("the first draw of key 7 under a TraceContext descendant is unmonitored")
	}
	if Monitored(run, 7) {
		t.Fatal("key 7 was monitored twice under one TraceContext")
	}
	if !Monitored(run, 8) {
		t.Fatal("a second key under the same TraceContext is unmonitored")
	}
	if !Monitored(TraceContext(run), 7) {
		t.Fatal("a fresh TraceContext inherited another's keys")
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = Monitored(plain, 7) }); allocs != 0 {
		t.Fatalf("Monitored on an untraced context allocates %v per call, want 0", allocs)
	}
}

// TestSeriesConcurrent: concurrent observers lose nothing.
func TestSeriesConcurrent(t *testing.T) {
	defer SetEnabled(true)()
	s := GetSeries("test.series.concurrent", "x")
	s.reset()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(1)
			}
		}()
	}
	wg.Wait()
	if n := s.Count(); n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
}

// TestSeriesResetIdentity: Reset zeroes a series but keeps its pointer
// and its unit, so package-level handles stay valid.
func TestSeriesResetIdentity(t *testing.T) {
	defer SetEnabled(true)()
	s := GetSeries("test.series.reset", "x")
	s.Observe(7)
	Reset()
	if s != GetSeries("test.series.reset", "other") {
		t.Fatal("Reset replaced the series")
	}
	if s.Count() != 0 {
		t.Fatal("Reset did not zero the count")
	}
	if u := seriesSnap(t, "test.series.reset").Unit; u != "x" {
		t.Fatalf("unit = %q, want the first registration's x", u)
	}
}

// TestSeriesMidRun: a series is readable in the snapshot while it is
// still being fed, and each read reflects the observations made so
// far.
func TestSeriesMidRun(t *testing.T) {
	defer SetEnabled(true)()
	s := GetSeries("test.series.live", "GHz")
	s.reset()
	s.Observe(1)
	if got := seriesSnap(t, "test.series.live"); got.Count != 1 || got.Mean != 1 || got.CI95 != 0 {
		t.Fatalf("after one observation: %+v, want count 1, mean 1, no CI yet", got)
	}
	s.Observe(3)
	got := seriesSnap(t, "test.series.live")
	if got.Count != 2 || got.Mean != 2 || got.CI95 <= 0 || got.Unit != "GHz" {
		t.Fatalf("after two observations: %+v, want count 2, mean 2, a CI, in GHz", got)
	}
}

// TestSeriesMatchesWelford: a series reports exactly what the bare
// accumulator computes; the lock and the snapshot change no number.
func TestSeriesMatchesWelford(t *testing.T) {
	defer SetEnabled(true)()
	s := GetSeries("test.series.welford", "u")
	s.reset()
	var w mathx.Welford
	for _, v := range []float64{1, 2, 3, 4, 100} {
		s.Observe(v)
		w.Add(v)
	}
	got := seriesSnap(t, "test.series.welford")
	if got.Count != w.N() || math.Abs(got.Mean-w.Mean()) > 1e-12 ||
		math.Abs(got.Std-w.Std()) > 1e-12 || math.Abs(got.CI95-w.CI95Mean()) > 1e-12 ||
		got.Min != w.Min() || got.Max != w.Max() {
		t.Errorf("series %+v diverges from Welford n=%d mean=%v std=%v ci=%v",
			got, w.N(), w.Mean(), w.Std(), w.CI95Mean())
	}
}
