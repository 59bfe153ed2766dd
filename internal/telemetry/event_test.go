package telemetry

import (
	"bytes"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// eventsOn enables telemetry with an empty event ring for one test.
func eventsOn(t *testing.T) {
	t.Helper()
	restore := SetEnabled(true)
	Reset()
	t.Cleanup(func() {
		restore()
		Reset()
	})
}

// TestEventsDisabledOverhead pins the contract the instrumented layers
// rely on: with telemetry off, building and emitting an event is one
// atomic load and zero allocations, and nothing reaches the ring.
func TestEventsDisabledOverhead(t *testing.T) {
	defer SetEnabled(false)()
	Reset()
	t.Cleanup(Reset)
	allocs := testing.AllocsPerRun(1000, func() {
		NewEvent("fault.injected").Int("core", 17).Float("d", 0.25).Str("mode", "drop").Emit()
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit path allocates %.1f times per op, want 0", allocs)
	}
	if got := Events(); len(got) != 0 {
		t.Fatalf("disabled Emit recorded %d events, want 0", len(got))
	}
	if n := telEventsEmitted.Value(); n != 0 {
		t.Fatalf("disabled Emit counted events.emitted = %d, want 0", n)
	}
}

func TestEventEmitOrder(t *testing.T) {
	eventsOn(t)
	NewEvent("a").Int("i", 1).Emit()
	NewEvent("b").Str("s", "x").Emit()
	NewEvent("c").Float("f", 2.5).Emit()
	evs := Events()
	if len(evs) != 3 {
		t.Fatalf("Events returned %d events, want 3", len(evs))
	}
	for i, want := range []string{"a", "b", "c"} {
		if evs[i].Kind != want {
			t.Errorf("event %d kind = %q, want %q", i, evs[i].Kind, want)
		}
		if evs[i].Seq != uint64(i) {
			t.Errorf("event %d seq = %d, want %d", i, evs[i].Seq, i)
		}
		if evs[i].TimeNs < 0 {
			t.Errorf("event %d has negative timestamp %d", i, evs[i].TimeNs)
		}
	}
	if v := evs[0].Attrs[0].Value(); v != int64(1) {
		t.Errorf("int attr round-trip = %v (%T), want int64 1", v, v)
	}
	if v := evs[1].Attrs[0].Value(); v != "x" {
		t.Errorf("str attr round-trip = %v, want \"x\"", v)
	}
	if v := evs[2].Attrs[0].Value(); v != 2.5 {
		t.Errorf("float attr round-trip = %v, want 2.5", v)
	}
	if n := telEventsEmitted.Value(); n != 3 {
		t.Errorf("events.emitted = %d, want 3", n)
	}
}

// TestEventsFollowSwitch: the event log records exactly when telemetry
// does; there is no switch of its own.
func TestEventsFollowSwitch(t *testing.T) {
	eventsOn(t)
	restore := SetEnabled(false)
	NewEvent("off").Emit()
	restore()
	NewEvent("on").Emit()
	evs := Events()
	if len(evs) != 1 || evs[0].Kind != "on" {
		t.Fatalf("recorded %+v, want only the event emitted while telemetry was on", evs)
	}
}

// TestEventRingDropsOldest: past its bound the ring overwrites its
// oldest events and counts each in the events.dropped gauge.
func TestEventRingDropsOldest(t *testing.T) {
	eventsOn(t)
	eventLog.limit = 4
	defer func() { eventLog.limit = eventCap }()
	for i := 0; i < 10; i++ {
		NewEvent("tick").Int("i", int64(i)).Emit()
	}
	if d := GetGauge("events.dropped").Value(); d != 6 {
		t.Fatalf("events.dropped = %d, want 6", d)
	}
	evs := Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d events, want 4", len(evs))
	}
	// The survivors are the newest four, oldest first, with their
	// original sequence numbers intact.
	for i, e := range evs {
		want := uint64(6 + i)
		if e.Seq != want {
			t.Errorf("survivor %d seq = %d, want %d", i, e.Seq, want)
		}
		if e.Attrs[0].Value() != int64(want) {
			t.Errorf("survivor %d carries i = %v, want %d", i, e.Attrs[0].Value(), want)
		}
	}
	Reset()
	if GetGauge("events.dropped").Value() != 0 || len(Events()) != 0 {
		t.Fatal("Reset did not clear the event ring and its drop count")
	}
}

// TestEventsConcurrentEmit: events emitted from many goroutines all
// land, each under its own sequence number, with no line torn.
func TestEventsConcurrentEmit(t *testing.T) {
	eventsOn(t)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				NewEvent("tick").Int("w", int64(w)).Int("i", int64(i)).Emit()
			}
		}(w)
	}
	wg.Wait()
	evs := Events()
	if len(evs) != workers*per {
		t.Fatalf("recorded %d events, want %d", len(evs), workers*per)
	}
	seen := map[[2]any]bool{}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		seen[[2]any{e.Attrs[0].Value(), e.Attrs[1].Value()}] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct (worker, i) pairs, want %d", len(seen), workers*per)
	}
}

// TestEventRingGrowsOnDemand: a handful of events costs a handful of
// lines, not the ring's full capacity up front.
func TestEventRingGrowsOnDemand(t *testing.T) {
	eventsOn(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 5; i++ {
		NewEvent("chip.drawn").Int("seed", int64(i)).Int("cores", 288).Emit()
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("recording 5 events allocated %d bytes, want well under the %d-event ring", grew, eventCap)
	}
	if len(eventLog.lines) != 5 {
		t.Fatalf("ring holds %d lines, want 5", len(eventLog.lines))
	}
}

func TestEventNDJSONRoundTrip(t *testing.T) {
	eventsOn(t)
	NewEvent("chip.drawn").Int("seed", 2014).Int("cores", 288).Emit()
	NewEvent("quality.scored").Str("bench", "hotspot").Float("quality", 0.97).Float("whole", 3).Emit()
	NewEvent("weird").Float("nan", math.NaN()).Float("pinf", math.Inf(1)).Float("ninf", math.Inf(-1)).
		Str("esc", "a\"b\nc ").Emit()

	var wire bytes.Buffer
	if err := WriteEvents(&wire); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	evs, err := ParseNDJSON(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatalf("ParseNDJSON: %v", err)
	}
	want := []struct {
		kind  string
		attrs []any
	}{
		{"chip.drawn", []any{int64(2014), int64(288)}},
		{"quality.scored", []any{"hotspot", 0.97, 3.0}},
		{"weird", []any{math.NaN(), math.Inf(1), math.Inf(-1), "a\"b\nc "}},
	}
	if len(evs) != len(want) {
		t.Fatalf("round trip returned %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		e := evs[i]
		if e.Seq != uint64(i) || e.Kind != w.kind || len(e.Attrs) != len(w.attrs) {
			t.Fatalf("event %d = %+v, want kind %s with %d attrs", i, e, w.kind, len(w.attrs))
		}
		for j, wv := range w.attrs {
			if !sameAttrValue(e.Attrs[j].Value(), wv) {
				t.Errorf("event %d attr %d = %T %v, want %T %v", i, j, e.Attrs[j].Value(), e.Attrs[j].Value(), wv, wv)
			}
		}
	}
	// The integral float must carry a decimal marker on the wire so it
	// comes back as a float attr, not an int.
	if !strings.Contains(wire.String(), `"whole":3.0`) {
		t.Errorf("integral float lost its decimal marker: %s", wire.String())
	}
}

func TestParseNDJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseNDJSON(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("ParseNDJSON accepted malformed input")
	}
	evs, err := ParseNDJSON(strings.NewReader("\n  \n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank input: got %d events, err %v", len(evs), err)
	}
}

func TestEventsHandler(t *testing.T) {
	eventsOn(t)
	NewEvent("front.measured").Str("bench", "canneal").Int("cells", 12).Emit()

	rr := httptest.NewRecorder()
	EventsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/eventsz", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q", cc)
	}
	evs, err := ParseNDJSON(rr.Body)
	if err != nil {
		t.Fatalf("handler body does not parse: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != "front.measured" {
		t.Fatalf("handler served %+v", evs)
	}
}
