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
// histograms, series, stages and their annotations (traced context or
// not), the per-task fault notes the kernels make without a ledger, or
// the chip factory's monitored-sample check — and records nothing: a
// disabled stage reports no elapsed time, a disabled note never
// reaches the fault counters, and a traced context claims no sample.
// It is an external test so it can drive fault.Plan.Note, the hottest
// emit site.
func TestTelemetryDisabledOverhead(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	telemetry.Reset()
	c := telemetry.GetCounter("test.overhead.counter")
	g := telemetry.GetGauge("test.overhead.gauge")
	h := telemetry.GetHistogram("test.overhead.hist")
	sr := telemetry.GetSeries("test.overhead.series", "x")
	st := telemetry.NewStage("test.overhead.stage")
	drop, flip := fault.DropHalf(), fault.Plan{Mode: fault.Flip, Num: 1, Den: 2}
	ctx := context.Background()
	traced := telemetry.TraceContext(ctx)
	var elapsed time.Duration
	var claimed bool
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
		g.Set(9)
		h.Observe(123)
		sr.Observe(0.5)
		claimed = claimed || telemetry.Monitored(traced, 17)
		tm := st.Begin(ctx).Int("k", 1).Str("s", "v").Float("f", 0.25)
		elapsed += tm.End()
		tm = st.BeginLane(traced).Float("f", 0.25)
		_ = tm.Context(traced)
		elapsed += tm.End()
		drop.Note(3)
		flip.Note(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f objects per op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sr.Count() != 0 || elapsed != 0 ||
		claimed || telemetry.GetHistogram("test.overhead.stage").Count() != 0 {
		t.Fatal("disabled telemetry recorded values")
	}
	for _, name := range []string{"fault.drops", "fault.injected"} {
		if n := telemetry.GetCounter(name).Value(); n != 0 {
			t.Fatalf("disabled telemetry counted %s = %d, want 0", name, n)
		}
	}
}
