package experiments

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/rms"
	"repro/internal/telemetry"
)

// TestRunManyTelemetry: each runner executed through RunMany records
// one span in its experiments.run.<id> histogram, and the shared model
// caches report their traffic.
func TestRunManyTelemetry(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	results, err := RunMany(context.Background(), DefaultConfig(), []string{"fig1a", "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1a", "fig1b"} {
		h := telemetry.GetHistogram("experiments.run." + id)
		if h.Count() != 1 {
			t.Errorf("experiments.run.%s span count = %d, want 1", id, h.Count())
		}
	}
}

// TestRepresentativeChipCacheTelemetry: the memoized chip sample
// reports a miss on first use and hits afterwards.
func TestRepresentativeChipCacheTelemetry(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	ResetCaches()
	telemetry.Reset() // discard the evictions ResetCaches just recorded
	cfg := DefaultConfig()
	if _, err := RepresentativeChip(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RepresentativeChip(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	hits := telemetry.GetCounter("cache.experiments.RepresentativeChip.hits")
	misses := telemetry.GetCounter("cache.experiments.RepresentativeChip.misses")
	if misses.Value() != 1 || hits.Value() != 1 {
		t.Errorf("RepresentativeChip cache hits/misses = %d/%d, want 1/1",
			hits.Value(), misses.Value())
	}
	// Leave the process-wide caches warm but consistent for the other
	// tests in the package.
	ResetCaches()
}

// cheapKernel is the smallest kernel MeasureFronts can profile: a
// two-point sweep whose runs and scores cost nothing.
type cheapKernel struct{ rms.Benchmark }

func (cheapKernel) Name() string                   { return "cheap" }
func (cheapKernel) HyperInput() float64            { return 2 }
func (cheapKernel) DefaultThreads() int            { return 4 }
func (cheapKernel) Sweep() []float64               { return []float64{1, 2} }
func (cheapKernel) ProblemSize(in float64) float64 { return in }
func (cheapKernel) Run(in float64, _ int, _ fault.Plan, _ int64) (rms.Result, error) {
	return rms.Result{Output: []float64{in}, Ops: in}, nil
}
func (cheapKernel) Quality(run, ref rms.Result) (float64, error) { return run.Ops / ref.Ops, nil }

// TestMeasuredFrontsBounded: fronts for ever new workload seeds stay
// within frontsMax entries.
func TestMeasuredFrontsBounded(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	for seed := int64(1); seed <= frontsMax+10; seed++ {
		if _, err := MeasuredFronts(context.Background(), cheapKernel{}, seed); err != nil {
			t.Fatal(err)
		}
		if want := min(int(seed), frontsMax); fronts.Len() != want {
			t.Fatalf("after %d seeds the memo holds %d fronts, want %d", seed, fronts.Len(), want)
		}
	}
}
