package telemetry_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// TestTelemetryDisabledOverhead guards the Enabled contract: the
// disabled record path allocates nothing — not for counters, gauges,
// histograms, stages (traced context or not), domain events, or the
// per-task fault notes the kernels make without a ledger — and records
// nothing: a disabled stage reports no elapsed time, and a disabled
// event or note never reaches the ring or the fault counters. It is an
// external test so it can drive fault.Plan.Note, the hottest emit site.
func TestTelemetryDisabledOverhead(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	telemetry.Reset()
	c := telemetry.GetCounter("test.overhead.counter")
	g := telemetry.GetGauge("test.overhead.gauge")
	h := telemetry.GetHistogram("test.overhead.hist")
	st := telemetry.NewStage("test.overhead.stage")
	drop, flip := fault.DropHalf(), fault.Plan{Mode: fault.Flip, Num: 1, Den: 2}
	ctx := context.Background()
	traced := telemetry.TraceContext(ctx)
	var elapsed time.Duration
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
		g.Set(9)
		h.Observe(123)
		tm := st.Begin(ctx).Int("k", 1).Str("s", "v")
		elapsed += tm.End()
		tm = st.BeginLane(traced)
		_ = tm.Context(traced)
		elapsed += tm.End()
		telemetry.NewEvent("chip.drawn").Int("seed", 17).Float("vddntv", 0.25).Str("mode", "drop").Emit()
		drop.Note(3, 0)
		flip.Note(3, -1)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f objects per op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || elapsed != 0 ||
		telemetry.GetHistogram("test.overhead.stage").Count() != 0 {
		t.Fatal("disabled telemetry recorded values")
	}
	if n := len(telemetry.Events()); n != 0 {
		t.Fatalf("disabled telemetry recorded %d events, want 0", n)
	}
	for _, name := range []string{"fault.drops", "fault.injected"} {
		if n := telemetry.GetCounter(name).Value(); n != 0 {
			t.Fatalf("disabled telemetry counted %s = %d, want 0", name, n)
		}
	}
}
