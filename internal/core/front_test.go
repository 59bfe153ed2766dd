package core

import (
	"testing"

	"repro/internal/rms/canneal"
	"repro/internal/telemetry"
)

// TestFrontEventsWithTelemetryOn: measuring canneal's fronts with
// telemetry on logs the front.measured event and one quality.scored
// per cell, and no per-task drop.triggered: the Drop scenarios'
// ledger-less notes only bump fault.drops, so the ring never fills.
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
