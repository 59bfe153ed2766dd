package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one timed layer of the evaluation (a chip draw, a quality
// front, a solver sweep, an experiment runner), declared once as a
// package-level handle whose name is both its histogram's name and its
// trace events' name:
//
//	var stSolve = telemetry.NewStage("core.solver.solve")
//
//	t := stSolve.Begin(ctx)
//	defer t.End()
//
// What a call costs depends on the process switch and the context:
//
//   - telemetry off: Begin is one atomic load; no clock read, no
//     allocation, and End returns 0;
//   - telemetry on: Begin reads the clock and looks up the context's
//     trace parent; End records the elapsed nanoseconds in the stage's
//     histogram and returns them, still without allocating;
//   - telemetry on and ctx descending from a TraceContext: the call
//     also becomes one trace event, parented to the stage call ctx
//     carries, which Timing.Context hands on to the stages below.
//
// All clock access stays in this package, so simulation packages,
// where the accordionvet determinism analyzer forbids wall clocks,
// time themselves through stages.
type Stage struct {
	name string
	h    *Histogram
}

// NewStage registers the stage's histogram under name and returns the
// handle. Call it once per stage, at package level.
func NewStage(name string) *Stage {
	return &Stage{name: name, h: GetHistogram(name)}
}

// Timing is one call of a stage, from Begin to End. The zero Timing,
// which Begin returns while telemetry is off, is a no-op throughout.
type Timing struct {
	st    *Stage
	start time.Time
	node  *traceNode // non-nil only in a traced context
}

// traceNode is one traced stage call: its event identity, its lane,
// and its annotations. A traced context carries the node of the call
// that will parent the stages begun under it.
type traceNode struct {
	id, parent, tid uint64
	args            []arg
}

// Span and lane ids. Ids start at 1 so 0 always means "no parent";
// lane 0 is never assigned, so a zero tid cannot alias a real lane.
var spanIDs, laneIDs atomic.Uint64

type traceKey struct{}

// TraceContext returns a context whose stages record trace events and
// whose samplers feed their series (Monitored). It opens the root of a
// trace on a fresh lane, where the first stage begun under it becomes
// a parentless event, and an empty set of observed sample keys.
func TraceContext(ctx context.Context) context.Context {
	ctx = context.WithValue(ctx, seenKey{}, new(sync.Map))
	return context.WithValue(ctx, traceKey{}, &traceNode{tid: laneIDs.Add(1)})
}

// Begin starts one call of the stage. In a traced context the call's
// event shares its parent's lane, so Perfetto nests it inside the
// parent's slice.
func (s *Stage) Begin(ctx context.Context) Timing { return s.begin(ctx, false) }

// BeginLane is Begin for work that runs concurrently with its parent
// (a pool worker): in a traced context the event opens a fresh lane.
func (s *Stage) BeginLane(ctx context.Context) Timing { return s.begin(ctx, true) }

func (s *Stage) begin(ctx context.Context, lane bool) Timing {
	if !enabled.Load() {
		return Timing{}
	}
	t := Timing{st: s, start: time.Now()}
	if parent, _ := ctx.Value(traceKey{}).(*traceNode); parent != nil {
		tid := parent.tid
		if lane {
			tid = laneIDs.Add(1)
		}
		t.node = &traceNode{id: spanIDs.Add(1), parent: parent.id, tid: tid}
	}
	return t
}

// Int annotates the call's trace event with an integer and returns the
// Timing for chaining. Untraced calls ignore it without allocating.
func (t Timing) Int(key string, v int64) Timing {
	if t.node != nil {
		t.node.args = append(t.node.args, arg{key, v})
	}
	return t
}

// Float annotates the call's trace event with a float. NaN and ±Inf,
// which JSON numbers cannot carry, export as the strings "NaN", "+Inf"
// and "-Inf".
func (t Timing) Float(key string, v float64) Timing {
	if t.node != nil {
		var val any = v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			val = strconv.FormatFloat(v, 'g', -1, 64)
		}
		t.node.args = append(t.node.args, arg{key, val})
	}
	return t
}

// Str annotates the call's trace event with a string.
func (t Timing) Str(key, v string) Timing {
	if t.node != nil {
		t.node.args = append(t.node.args, arg{key, v})
	}
	return t
}

// Context returns ctx with this call as the trace parent of the stages
// begun under it. An untraced call returns ctx itself.
func (t Timing) Context(ctx context.Context) context.Context {
	if t.node == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t.node)
}

// End finishes the call: it records the elapsed time in the stage's
// histogram and, in a traced context, the trace event, and returns the
// elapsed time. A call begun while telemetry was on still lands if the
// switch flips before End, so traces keep no dangling children. On the
// zero Timing it returns 0.
func (t Timing) End() time.Duration {
	if t.st == nil {
		return 0
	}
	d := time.Since(t.start)
	t.st.h.observe(d.Nanoseconds())
	if t.node != nil {
		traceBuf.record(t.st.name, t.node, t.start, d)
	}
	return d
}

// arg is one annotation on a trace event: an int64, a finite float64
// or a string.
type arg struct {
	Key string
	Val any
}

// event is one finished traced call.
type event struct {
	Name   string
	ID     uint64
	Parent uint64 // 0 for the root
	TID    uint64 // lane
	Start  int64  // ns since the trace epoch
	Dur    int64  // ns
	Args   []arg
}

// traceCap bounds the trace buffer. A traced `accordion all` records
// about 1,050 events and a 20,000-chip population about 20,100.
const traceCap = 1 << 19

// telTraceDropped counts the events the full buffer discarded, so a
// snapshot shows trace.dropped > 0 whenever the trace export is
// missing events. Only the trace buffer writes it.
var telTraceDropped = GetGauge("trace.dropped")

// traceBuffer holds every finished traced call. Traced runs record a
// few hundred events, so one mutex-guarded slice is enough.
type traceBuffer struct {
	mu     sync.Mutex
	epoch  time.Time // event start times count from here
	limit  int       // traceCap; tests lower it
	events []event
}

var traceBuf = traceBuffer{epoch: time.Now(), limit: traceCap}

// record keeps one finished traced call if the buffer has room and
// counts it as dropped otherwise.
func (b *traceBuffer) record(name string, n *traceNode, start time.Time, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) >= b.limit {
		telTraceDropped.v.Add(1)
		return
	}
	b.events = append(b.events, event{
		Name:   name,
		ID:     n.id,
		Parent: n.parent,
		TID:    n.tid,
		Start:  start.Sub(b.epoch).Nanoseconds(),
		Dur:    d.Nanoseconds(),
		Args:   n.args,
	})
}

// reset discards every event and re-anchors the trace clock.
func (b *traceBuffer) reset() {
	b.mu.Lock()
	b.events = nil
	b.epoch = time.Now()
	b.mu.Unlock()
}

// traceEvents returns a copy of the recorded events sorted by start
// time, ties by id. Call it after the traced work has finished: calls
// still in flight are absent.
func traceEvents() []event {
	traceBuf.mu.Lock()
	out := append([]event(nil), traceBuf.events...)
	traceBuf.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// SelfTimes sums the recorded trace's self time per stage name: each
// traced call's duration minus the union of its children's intervals.
// Children are clipped to the call's window, so a child that outlives
// its parent charges only the part inside it, and pool children that
// overlap in time count once. A traced run's layer costs then add up
// to its root stage's wall time instead of double-counting nested or
// concurrent work. Call it after the traced work has finished.
func SelfTimes() map[string]time.Duration { return selfTimes(traceEvents()) }

// selfTimes applies SelfTimes' rule to events sorted by start time.
func selfTimes(events []event) map[string]time.Duration {
	children := map[uint64][]event{}
	for _, e := range events {
		children[e.Parent] = append(children[e.Parent], e)
	}
	self := map[string]time.Duration{}
	for _, e := range events {
		end := e.Start + e.Dur
		covered, cursor := int64(0), e.Start
		for _, c := range children[e.ID] {
			lo, hi := max(c.Start, cursor), min(c.Start+c.Dur, end)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[e.Name] += time.Duration(e.Dur - covered)
	}
	return self
}

// Chrome trace-event JSON (the object flavor with a traceEvents key),
// loadable in Perfetto and chrome://tracing. Every event is a complete
// ("X") event; ts and dur are fractional microseconds, so nanosecond
// resolution survives, and the span and parent ids ride in args so the
// tree is recoverable across lanes.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// category is the event name's first dotted component ("chip.draw" ->
// "chip"), which Perfetto colors by.
func category(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// WriteTrace writes every recorded trace event to w as Chrome
// trace-event JSON. Each lane is named, through thread_name metadata,
// after the first event on it.
func WriteTrace(w io.Writer) error {
	events := traceEvents()
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	laneName := map[uint64]string{}
	for _, e := range events {
		if _, ok := laneName[e.TID]; !ok {
			laneName[e.TID] = e.Name
		}
		dur := float64(e.Dur) / 1e3
		args := map[string]any{"span": e.ID, "parent": e.Parent}
		for _, a := range e.Args {
			args[a.Key] = a.Val
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: e.Name, Cat: category(e.Name), Ph: "X",
			Ts: float64(e.Start) / 1e3, Dur: &dur, Pid: 1, Tid: e.TID, Args: args,
		})
	}
	tids := make([]uint64, 0, len(laneName))
	for tid := range laneName {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": laneName[tid]},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
