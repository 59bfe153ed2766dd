package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// traceOn enables telemetry and clears the trace buffer for one test.
func traceOn(t *testing.T) {
	t.Helper()
	restore := SetEnabled(true)
	Reset()
	t.Cleanup(func() {
		restore()
		Reset()
	})
}

// eventByName finds one recorded event by stage name.
func eventByName(t *testing.T, events []event, name string) event {
	t.Helper()
	for _, e := range events {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no event named %q in %d events", name, len(events))
	return event{}
}

// TestStageRecords: End lands one observation in the stage's histogram
// and returns the elapsed time it recorded.
func TestStageRecords(t *testing.T) {
	traceOn(t)
	st := NewStage("test.stage.records")
	d := st.Begin(context.Background()).End()
	if st.h.Count() != 1 || st.h.sum.Load() != d.Nanoseconds() {
		t.Fatalf("histogram count %d sum %d, want 1 and End's %d", st.h.Count(), st.h.sum.Load(), d.Nanoseconds())
	}
	if GetHistogram("test.stage.records") != st.h {
		t.Fatal("the stage's histogram is not registered under its name")
	}
	if len(traceEvents()) != 0 {
		t.Fatal("a stage in an untraced context recorded a trace event")
	}
}

// TestStageTree pins the structural contract: the first stage under a
// TraceContext is a parentless root, Begin shares the parent's lane,
// and BeginLane opens a fresh one.
func TestStageTree(t *testing.T) {
	traceOn(t)
	ctx := TraceContext(context.Background())
	run := NewStage("run").Begin(ctx)
	ctx = run.Context(ctx)
	runner := NewStage("test.tree.runner").Begin(ctx)
	draw := NewStage("test.tree.draw").BeginLane(runner.Context(ctx)).Int("index", 7).Str("kind", "mc")
	draw.End()
	runner.End()
	run.End()

	events := traceEvents()
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	er := eventByName(t, events, "run")
	en := eventByName(t, events, "test.tree.runner")
	ed := eventByName(t, events, "test.tree.draw")
	if er.Parent != 0 {
		t.Errorf("run parent = %d, want 0", er.Parent)
	}
	if en.Parent != er.ID {
		t.Errorf("runner parent = %d, want run id %d", en.Parent, er.ID)
	}
	if en.TID != er.TID {
		t.Errorf("runner lane = %d, want run lane %d (Begin shares lanes)", en.TID, er.TID)
	}
	if ed.Parent != en.ID {
		t.Errorf("draw parent = %d, want runner id %d", ed.Parent, en.ID)
	}
	if ed.TID == en.TID {
		t.Error("BeginLane did not open a fresh lane")
	}
	if len(ed.Args) != 2 || ed.Args[0] != (arg{"index", int64(7)}) || ed.Args[1] != (arg{"kind", "mc"}) {
		t.Errorf("draw args = %+v", ed.Args)
	}
}

// TestStageContextPropagation: a traced context stays traced through
// derived contexts, a stage parents to the call its context carries,
// and a context that never passed through TraceContext records
// histograms but no trace events.
func TestStageContextPropagation(t *testing.T) {
	traceOn(t)
	st := NewStage("test.ctx.stage")
	root := st.Begin(TraceContext(context.Background()))
	ctx, cancel := context.WithCancel(root.Context(context.Background()))
	defer cancel()
	child := st.Begin(ctx)
	child.End()
	root.End()
	plain := st.Begin(context.Background())
	if plain.Context(ctx) != ctx {
		t.Error("an untraced call changed its context")
	}
	plain.End()

	events := traceEvents()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2 (the untraced call must not record)", len(events))
	}
	if events[0].Parent != 0 || events[1].Parent != events[0].ID {
		t.Errorf("child parent = %d, want root id %d", events[1].Parent, events[0].ID)
	}
	if st.h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3 (traced or not)", st.h.Count())
	}
}

// TestStageConcurrentRecording hammers the trace buffer from many
// goroutines; the count must be exact, and the race detector guards
// the memory model.
func TestStageConcurrentRecording(t *testing.T) {
	traceOn(t)
	const workers, per = 16, 200
	stRoot, stLane, stEv := NewStage("test.fire.root"), NewStage("test.fire.lane"), NewStage("test.fire.ev")
	root := stRoot.Begin(TraceContext(context.Background()))
	rctx := root.Context(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := stLane.BeginLane(rctx)
			lctx := lane.Context(rctx)
			for i := 0; i < per; i++ {
				stEv.Begin(lctx).Int("i", int64(i)).End()
			}
			lane.End()
		}()
	}
	wg.Wait()
	root.End()
	if got, want := len(traceEvents()), workers*per+workers+1; got != want {
		t.Fatalf("recorded %d events, want %d (dropped=%d)", got, want, telTraceDropped.Value())
	}
}

// TestTraceBounded: only the buffer's total is bounded, so one lane
// keeps far more than the old per-lane slab of 8,192 events; past the
// total, events are dropped instead of stored and counted in
// trace.dropped, and Reset clears both.
func TestTraceBounded(t *testing.T) {
	traceOn(t)
	st := NewStage("test.bound.ev")
	lane := NewStage("test.bound.lane").Begin(TraceContext(context.Background()))
	ctx := lane.Context(context.Background())
	const n = 8192 + 10
	for i := 0; i < n; i++ {
		st.Begin(ctx).End()
	}
	lane.End()
	if got := len(traceEvents()); got != n+1 {
		t.Fatalf("kept %d events, want %d", got, n+1)
	}
	if d := telTraceDropped.Value(); d != 0 {
		t.Fatalf("trace.dropped = %d under the bound, want 0", d)
	}

	// Lower the bound rather than record half a million events.
	Reset()
	const limit, over = 16, 7
	traceBuf.limit = limit
	defer func() { traceBuf.limit = traceCap }()
	for i := 0; i < limit+over; i++ {
		st.Begin(ctx).End()
	}
	if got := len(traceEvents()); got != limit {
		t.Fatalf("buffer holds %d events, want its bound %d", got, limit)
	}
	if d := telTraceDropped.Value(); d != over {
		t.Fatalf("trace.dropped = %d, want %d", d, over)
	}
	Reset()
	if telTraceDropped.Value() != 0 || len(traceEvents()) != 0 {
		t.Fatal("Reset did not clear the trace buffer and its drop count")
	}
}

// TestTraceDroppedGauge: the buffer's drop count is the registry's
// trace.dropped gauge, so a snapshot shows it, and Reset zeroes it.
func TestTraceDroppedGauge(t *testing.T) {
	traceOn(t)
	traceBuf.limit = 1
	defer func() { traceBuf.limit = traceCap }()
	st := NewStage("test.dropped.ev")
	ctx := TraceContext(context.Background())
	const over = 7
	for i := 0; i < 1+over; i++ {
		st.Begin(ctx).End()
	}
	if v := GetGauge("trace.dropped").Value(); v != over {
		t.Fatalf("trace.dropped gauge = %d, want %d", v, over)
	}
	var captured int64 = -1
	for _, g := range Capture().Gauges {
		if g.Name == "trace.dropped" {
			captured = g.Value
		}
	}
	if captured != over {
		t.Fatalf("snapshot's trace.dropped = %d, want %d", captured, over)
	}
	Reset()
	if v := GetGauge("trace.dropped").Value(); v != 0 {
		t.Fatalf("trace.dropped gauge after Reset = %d, want 0", v)
	}
}

// TestSelfTimes pins the self-time rule on a synthetic trace: a call's
// self time is its duration minus the union of its children's
// intervals clipped to its window. Nesting subtracts each level once,
// overlapping pool children count once, and a child that outlives its
// parent charges the parent only up to the parent's end while keeping
// its whole duration as its own.
func TestSelfTimes(t *testing.T) {
	ev := func(name string, id, parent uint64, start, end int64) event {
		return event{Name: name, ID: id, Parent: parent, Start: start, Dur: end - start}
	}
	got := selfTimes([]event{
		ev("run", 1, 0, 0, 100),
		ev("cell", 2, 1, 10, 40),
		ev("kernel", 3, 2, 15, 35), // nested: cell keeps 30 - 20
		ev("worker", 4, 1, 50, 80), // three overlapping pool children
		ev("worker", 5, 1, 55, 65), // inside worker 4
		ev("worker", 6, 1, 60, 90), // union with 4 and 5: [50, 90)
		ev("kernel", 8, 4, 70, 75), // under worker 4 only
		ev("late", 7, 1, 95, 130),  // clipped to run's [95, 100)
	})
	want := map[string]time.Duration{
		"run":    100 - 30 - 40 - 5,
		"cell":   30 - 20,
		"kernel": 20 + 5,
		"worker": (30 - 5) + 10 + 30,
		"late":   35,
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d stages, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// TestStageDisabledNoop: with telemetry off a stage hands back the zero
// Timing, traced context or not, so it parents nothing below it,
// records no histogram observation and no event, and End returns 0.
// The zero Timing itself is a no-op throughout.
func TestStageDisabledNoop(t *testing.T) {
	defer SetEnabled(false)()
	Reset()
	defer Reset()
	st := NewStage("test.disabled.noop")
	ctx := TraceContext(context.Background())
	for i, tm := range []Timing{st.Begin(ctx), st.BeginLane(ctx), {}} {
		if tm.st != nil || tm.node != nil || !tm.start.IsZero() {
			t.Fatalf("timing %d: disabled stage returned a live Timing", i)
		}
		if tm.Int("k", 1).Str("s", "v").Context(ctx) != ctx {
			t.Fatalf("timing %d: a disabled call became a trace parent", i)
		}
		if d := tm.End(); d != 0 {
			t.Fatalf("timing %d: End = %v, want 0", i, d)
		}
	}
	if st.h.Count() != 0 || len(traceEvents()) != 0 {
		t.Fatal("a stage begun while telemetry was off recorded")
	}
}

// TestStageDisabledOverhead: with telemetry off, a traced chain of
// stages (a root, a child under the root's Context, a worker lane under
// the child, each annotated) allocates nothing and records no event.
func TestStageDisabledOverhead(t *testing.T) {
	defer SetEnabled(false)()
	Reset()
	defer Reset()
	root, child := NewStage("test.disabled.root"), NewStage("test.disabled.child")
	traced := TraceContext(context.Background())
	allocs := testing.AllocsPerRun(1000, func() {
		r := root.Begin(traced).Int("k", 3).Float("f", 0.5)
		ctx := r.Context(traced)
		c := child.Begin(ctx).Str("s", "v")
		child.BeginLane(c.Context(ctx)).Int("k", 4).End()
		c.End()
		r.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled stages allocate %.1f objects per op, want 0", allocs)
	}
	if len(traceEvents()) != 0 {
		t.Fatal("disabled stages recorded trace events")
	}
}

// TestStageEndAfterDisable: a stage begun while telemetry is on still
// lands, histogram and trace event, if the switch flips before End.
func TestStageEndAfterDisable(t *testing.T) {
	traceOn(t)
	st := NewStage("test.flip")
	tm := st.Begin(TraceContext(context.Background()))
	SetEnabled(false)
	tm.End()
	if st.h.Count() != 1 {
		t.Fatal("stage begun while enabled lost its histogram observation")
	}
	if len(traceEvents()) != 1 {
		t.Fatal("stage begun while enabled lost its trace event")
	}
}

// TestStageUntracedNoAlloc: with telemetry on, a stage in an untraced
// context (accordiond's path) reads the clock and records its
// histogram without allocating.
func TestStageUntracedNoAlloc(t *testing.T) {
	traceOn(t)
	st := NewStage("test.untraced.alloc")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := testing.AllocsPerRun(1000, func() {
		tm := st.Begin(ctx).Int("k", 1).Str("s", "v").Float("f", 0.5)
		_ = tm.Context(ctx)
		tm.End()
		st.BeginLane(ctx).End()
	})
	if allocs != 0 {
		t.Fatalf("an untraced stage allocates %.1f objects per op, want 0", allocs)
	}
	if st.h.Count() == 0 {
		t.Fatal("the untraced stage recorded nothing")
	}
}

// TestChromeExport: the export is Chrome trace-event JSON — an object
// with a traceEvents array of "X" events whose args carry the span and
// parent ids, plus thread_name metadata per lane.
func TestChromeExport(t *testing.T) {
	traceOn(t)
	ctx := TraceContext(context.Background())
	run := NewStage("run").Begin(ctx)
	ctx = run.Context(ctx)
	runner := NewStage("experiments.run.fig1a").Begin(ctx)
	draw := NewStage("chip.draw").BeginLane(runner.Context(ctx)).Int("index", 3)
	draw.End()
	runner.End()
	run.End()

	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var spans int
	byName := map[string]map[string]any{}
	lanes := map[uint64]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			byName[e.Name] = e.Args
			if e.Pid != 1 {
				t.Errorf("event %q pid = %d, want 1", e.Name, e.Pid)
			}
		case "M":
			if e.Name != "thread_name" {
				t.Errorf("metadata event %q, want thread_name", e.Name)
			}
			lanes[e.Tid] = e.Args["name"].(string)
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if spans != 3 {
		t.Fatalf("export has %d X events, want 3", spans)
	}
	if len(lanes) != 2 {
		t.Errorf("export names %d lanes, want 2: %v", len(lanes), lanes)
	}
	// The tree must be recoverable from args: draw.parent == runner.span,
	// runner.parent == run.span.
	runnerArgs, drawArgs := byName["experiments.run.fig1a"], byName["chip.draw"]
	if runnerArgs["parent"].(float64) != byName["run"]["span"].(float64) {
		t.Error("runner's exported parent is not the run span")
	}
	if drawArgs["parent"].(float64) != runnerArgs["span"].(float64) {
		t.Error("draw's exported parent is not the runner span")
	}
	if drawArgs["index"].(float64) != 3 {
		t.Error("draw's index arg did not export")
	}
	if category("chip.draw") != "chip" || category("run") != "run" {
		t.Error("category derivation broken")
	}
}

// TestTraceFloatArgs: Float annotations export as JSON numbers, and
// the non-finite values JSON cannot carry as the strings "NaN", "+Inf"
// and "-Inf", so the file still parses.
func TestTraceFloatArgs(t *testing.T) {
	traceOn(t)
	NewStage("test.float").Begin(TraceContext(context.Background())).
		Float("q", 0.75).Float("nan", math.NaN()).
		Float("pinf", math.Inf(1)).Float("ninf", math.Inf(-1)).
		End()
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("export holds no X event: %s", buf.Bytes())
	}
	args := doc.TraceEvents[0].Args
	for key, want := range map[string]any{"q": 0.75, "nan": "NaN", "pinf": "+Inf", "ninf": "-Inf"} {
		if args[key] != want {
			t.Errorf("arg %s = %#v, want %#v", key, args[key], want)
		}
	}
}
