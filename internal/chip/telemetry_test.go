package chip

import (
	"context"
	"testing"

	"repro/internal/telemetry"
)

// TestSampleTelemetry: every Monte-Carlo draw lands in the factory's
// chips_drawn counter and the chip.draw stage's histogram, whether or
// not it is drawn under a context.
func TestSampleTelemetry(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	const n = 3
	for i := 0; i < n; i++ {
		f.Sample(int64(100 + i))
	}
	f.SampleCtx(context.Background(), 200)
	if got := telChipsDrawn.Value(); got != n+1 {
		t.Errorf("chips_drawn = %d, want %d", got, n+1)
	}
	if got := telemetry.GetHistogram("chip.draw").Count(); got != n+1 {
		t.Errorf("chip.draw observations = %d, want %d", got, n+1)
	}
}
