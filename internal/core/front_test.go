package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rms"
	"repro/internal/rms/canneal"
	"repro/internal/telemetry"
)

// TestFrontEventsWithTelemetryOn: a traced measurement of canneal's
// fronts records one core.front.cell event per cell, annotated with
// its scenario and input, and one quality.canneal.score event per
// cell, whose quality annotations are the fronts' qualities. The run
// memo is emptied first, so every cell really runs and is scored, and
// the Drop scenarios count fault.drops.
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
	qm, err := MeasureFrontsCtx(telemetry.TraceContext(context.Background()), b, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var cells int
	var scores []float64
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "core.front.cell":
			cells++
			_, hasScenario := e.Args["scenario"].(string)
			_, hasInput := e.Args["input"].(float64)
			if !hasScenario || !hasInput {
				t.Errorf("core.front.cell args %v lack a scenario or an input", e.Args)
			}
		case "quality.canneal.score":
			q, ok := e.Args["quality"].(float64)
			if !ok {
				t.Errorf("quality.canneal.score args %v lack a quality", e.Args)
			}
			scores = append(scores, q)
		}
	}
	var want []float64
	for _, f := range []*QualityFront{qm.Default, qm.Quarter, qm.Half} {
		want = append(want, f.Quality...)
	}
	if n := 3 * len(b.Sweep()); cells != n || len(want) != n {
		t.Errorf("traced %d core.front.cell events for %d front points, want %d of each", cells, len(want), n)
	}
	sort.Float64s(scores)
	sort.Float64s(want)
	if !reflect.DeepEqual(scores, want) {
		t.Errorf("quality.canneal.score qualities %v, want the fronts' %v", scores, want)
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
