package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rms"
	"repro/internal/rms/canneal"
	"repro/internal/telemetry"
)

// TestFrontEventsWithTelemetryOn: measuring canneal's fronts with
// telemetry on logs the front.measured event and one quality.scored
// per cell, and no per-task drop.triggered: the Drop scenarios'
// ledger-less notes only bump fault.drops, so the ring never fills.
// The run memo is emptied first, so the Drop cells really run.
func TestFrontEventsWithTelemetryOn(t *testing.T) {
	if testing.Short() {
		t.Skip("measures canneal's fronts")
	}
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	defer telemetry.Reset()
	b, err := canneal.New()
	if err != nil {
		t.Fatal(err)
	}
	rms.ResetReferenceCache()
	if _, err := MeasureFronts(b, 1); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range telemetry.Events() {
		kinds[e.Kind]++
	}
	cells := 3 * len(b.Sweep())
	if kinds["front.measured"] != 1 || kinds["quality.scored"] != cells || len(kinds) != 2 {
		t.Errorf("logged %v, want 1 front.measured and %d quality.scored only", kinds, cells)
	}
	if d := telemetry.GetGauge("events.dropped").Value(); d != 0 {
		t.Errorf("events.dropped = %d, want 0", d)
	}
	if n := telemetry.GetCounter("fault.drops").Value(); n == 0 {
		t.Error("the Drop scenarios counted no fault.drops")
	}
}

// blockedRefKernel's reference run waits until every front cell has
// run, so its fronts can be measured only if the cells run beside the
// reference. Every run outputs its input, and quality is run/ref.
type blockedRefKernel struct {
	rms.Benchmark
	cells  int
	mu     sync.Mutex
	ran    int
	allRan chan struct{}
}

func (*blockedRefKernel) Name() string                   { return "blockedref" }
func (*blockedRefKernel) HyperInput() float64            { return 8 }
func (*blockedRefKernel) DefaultThreads() int            { return 4 }
func (*blockedRefKernel) Sweep() []float64               { return []float64{1, 2, 4} }
func (*blockedRefKernel) ProblemSize(in float64) float64 { return in }
func (*blockedRefKernel) Quality(run, ref rms.Result) (float64, error) {
	return run.Output[0] / ref.Output[0], nil
}

func (k *blockedRefKernel) Run(in float64, _ int, _ fault.Plan, _ int64) (rms.Result, error) {
	if in == k.HyperInput() {
		select {
		case <-k.allRan:
		case <-time.After(10 * time.Second):
			return rms.Result{}, errors.New("the reference ran before the cells")
		}
	} else {
		k.mu.Lock()
		if k.ran++; k.ran == k.cells {
			close(k.allRan)
		}
		k.mu.Unlock()
	}
	return rms.Result{Output: []float64{in}}, nil
}

// TestCellsRunBesideReference: on two workers a front's cells run
// while its reference is still running, and the cells that finish
// first are scored once the reference is done.
func TestCellsRunBesideReference(t *testing.T) {
	defer parallel.SetWorkers(2)()
	rms.ResetReferenceCache()
	defer rms.ResetReferenceCache()
	k := &blockedRefKernel{cells: 9, allRan: make(chan struct{})}
	qm, err := MeasureFronts(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.125, 0.25, 0.5}
	for _, f := range []*QualityFront{qm.Default, qm.Quarter, qm.Half} {
		if !reflect.DeepEqual(f.Quality, want) {
			t.Errorf("%s front quality %v, want %v", f.Scenario, f.Quality, want)
		}
	}
}
