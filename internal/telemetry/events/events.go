// Package events is the repository's domain-observability tier: a
// structured log of *simulation* events — a chip drawn from the
// Monte-Carlo factory, a quality front measured, a fault injected into
// a task, a Drop plan suppressing a task's contribution, an output
// scored against its reference — where internal/telemetry aggregates
// runtime counters and traces runtime stages.
//
// Design constraints, mirroring internal/telemetry:
//
//  1. Near-zero cost when off. Event construction is gated on one
//     atomic load of the package switch; while disabled New returns a
//     nil *Builder whose methods are no-ops, so the disabled path
//     performs no allocation and no time.Now call (pinned by
//     TestEventsDisabledOverhead).
//  2. Bounded memory. Events land in a fixed-capacity ring buffer;
//     once the ring wraps, the oldest event is overwritten and
//     Dropped() counts the loss instead of memory growing.
//  3. Self-describing export. The ring dumps as NDJSON — one JSON
//     object per line with a deterministic attribute order — which
//     ParseNDJSON reads back into identical events, so downstream
//     tooling (jq, CI gates, the /eventsz endpoint) needs no schema.
//
// Attributes are typed (int64, float64, string) so hot emitters never
// box values; Attr.Slog converts to a log/slog attribute for callers
// bridging into a slog pipeline.
package events

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide recording switch.
var enabled atomic.Bool

// epoch anchors event timestamps; all events are nanoseconds since it.
var epoch atomic.Int64 // unix nanoseconds, 0 until first enable

// On reports whether event logging is recording. Callers that must pay
// a setup cost before emitting (deriving attribute values) should gate
// that setup on On(); plain New chains need no guard because New
// checks the switch itself.
func On() bool { return enabled.Load() }

// SetEnabled flips the process-wide switch and returns a function
// restoring the previous state, for scoped use in tests. The first
// enable anchors the event clock; Reset re-anchors it.
func SetEnabled(on bool) (restore func()) {
	if on {
		epoch.CompareAndSwap(0, time.Now().UnixNano())
	}
	prev := enabled.Swap(on)
	return func() { enabled.Store(prev) }
}

// now returns nanoseconds since the event epoch.
func now() int64 { return time.Now().UnixNano() - epoch.Load() }

// attrKind discriminates the typed attribute payloads.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindFloat
	kindStr
)

// Attr is one typed key/value annotation on an event. Construct with
// Int64, Float64 or String; the zero Attr is an int64 0 under the
// empty key.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Int64 returns an integer-valued attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i: v} }

// Float64 returns a float-valued attribute.
func Float64(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// String returns a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: kindStr, s: v} }

// Value returns the attribute's dynamic value (int64, float64 or
// string), for assertions and generic consumers.
func (a Attr) Value() any {
	switch a.kind {
	case kindFloat:
		return a.f
	case kindStr:
		return a.s
	}
	return a.i
}

// Slog converts the attribute to a log/slog attribute, so event
// consumers can feed a slog.Handler without re-boxing.
func (a Attr) Slog() slog.Attr {
	switch a.kind {
	case kindFloat:
		return slog.Float64(a.Key, a.f)
	case kindStr:
		return slog.String(a.Key, a.s)
	}
	return slog.Int64(a.Key, a.i)
}

// Event is one recorded simulation-domain event. Seq is the emission
// sequence number (dense from 0 per Reset, so gaps at the front of a
// Collect reveal ring overwrites); TimeNs is nanoseconds since the
// event epoch.
type Event struct {
	Seq    uint64
	TimeNs int64
	Kind   string
	Attrs  []Attr
}

// Builder accumulates one event's attributes. A nil *Builder (what New
// returns while logging is off) is a valid no-op receiver for every
// method, so instrumentation needs no guards.
type Builder struct {
	ev Event
}

// New starts an event of the given kind ("chip.drawn",
// "fault.injected", ...). Returns nil while event logging is off; the
// disabled path is one atomic load and no allocation.
func New(kind string) *Builder {
	if !enabled.Load() {
		return nil
	}
	return &Builder{ev: Event{Kind: kind, TimeNs: now()}}
}

// Int annotates the event with an integer value. Nil-safe, chainable.
func (b *Builder) Int(key string, v int64) *Builder {
	if b == nil {
		return nil
	}
	b.ev.Attrs = append(b.ev.Attrs, Int64(key, v))
	return b
}

// Float annotates the event with a float value. Nil-safe, chainable.
func (b *Builder) Float(key string, v float64) *Builder {
	if b == nil {
		return nil
	}
	b.ev.Attrs = append(b.ev.Attrs, Float64(key, v))
	return b
}

// Str annotates the event with a string value. Nil-safe, chainable.
func (b *Builder) Str(key, v string) *Builder {
	if b == nil {
		return nil
	}
	b.ev.Attrs = append(b.ev.Attrs, String(key, v))
	return b
}

// Emit records the event into the ring. Safe on nil. An event built
// while logging was on still lands if the switch flips mid-flight.
func (b *Builder) Emit() {
	if b == nil {
		return
	}
	record(b.ev)
}

// DefaultCapacity is the ring's event capacity until SetCapacity
// overrides it: enough for every chip draw, front cell and
// task-granular fault note of a default `accordion all` run.
const DefaultCapacity = 65536

// ring is the bounded event store. A mutex suffices: domain events are
// orders of magnitude rarer than spans or counter bumps, and the lock
// is only taken while the switch is on.
var ring struct {
	mu      sync.Mutex
	buf     []Event
	cap     int
	next    uint64 // total events emitted since Reset; also the next Seq
	dropped int64
}

// record appends one event, overwriting the oldest once the ring is
// full.
func record(e Event) {
	ring.mu.Lock()
	if ring.cap == 0 {
		ring.cap = DefaultCapacity
	}
	if ring.buf == nil {
		ring.buf = make([]Event, ring.cap)
	}
	e.Seq = ring.next
	ring.buf[e.Seq%uint64(ring.cap)] = e
	ring.next++
	if ring.next > uint64(ring.cap) {
		ring.dropped++
		telDropped.Set(ring.dropped)
	}
	telEmitted.Inc()
	ring.mu.Unlock()
}

// Dropped returns the number of events overwritten because the ring
// wrapped; the NDJSON dump then starts at the oldest surviving event.
func Dropped() int64 {
	ring.mu.Lock()
	defer ring.mu.Unlock()
	return ring.dropped
}

// SetCapacity resizes the ring (discarding recorded events) and
// returns a function restoring the previous capacity, for scoped use
// in tests. Non-positive capacities are ignored.
func SetCapacity(n int) (restore func()) {
	ring.mu.Lock()
	prev := ring.cap
	if n > 0 {
		ring.cap = n
		ring.buf = nil
		ring.next = 0
		ring.dropped = 0
	}
	ring.mu.Unlock()
	return func() { SetCapacity(prev) }
}

// Reset discards every recorded event, zeroes the drop counter and
// re-anchors the event clock. Call it between runs; recording may not
// be in flight.
func Reset() {
	ring.mu.Lock()
	ring.buf = nil
	ring.next = 0
	ring.dropped = 0
	ring.mu.Unlock()
	epoch.Store(time.Now().UnixNano())
}

// Collect returns every surviving event in emission order (oldest
// first).
func Collect() []Event {
	ring.mu.Lock()
	defer ring.mu.Unlock()
	if ring.buf == nil {
		return nil
	}
	cap64 := uint64(ring.cap)
	start := uint64(0)
	if ring.next > cap64 {
		start = ring.next - cap64
	}
	out := make([]Event, 0, ring.next-start)
	for s := start; s < ring.next; s++ {
		out = append(out, ring.buf[s%cap64])
	}
	return out
}

// appendJSONFloat renders a float as a JSON number that ParseNDJSON
// reads back as a float: integral values gain a ".0" marker so they
// cannot be mistaken for int64 attributes, and the non-finite values
// JSON cannot carry become the strings "NaN", "+Inf", "-Inf".
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(dst, fmt.Sprintf("%v", v))
	}
	s := strconv.AppendFloat(nil, v, 'g', -1, 64)
	if !bytes.ContainsAny(s, ".eE") {
		s = append(s, '.', '0')
	}
	return append(dst, s...)
}

// appendJSONString renders s as a JSON string (encoding/json escaping,
// so control characters survive a round trip).
func appendJSONString(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return strconv.AppendQuote(dst, s)
	}
	return append(dst, b...)
}

// AppendNDJSON renders one event as a single NDJSON line (without the
// trailing newline): seq, t_ns, kind, then the attributes as an object
// in emission order.
func AppendNDJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"t_ns":`...)
	dst = strconv.AppendInt(dst, e.TimeNs, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, e.Kind)
	dst = append(dst, `,"attrs":{`...)
	for i, a := range e.Attrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, a.Key)
		dst = append(dst, ':')
		switch a.kind {
		case kindFloat:
			dst = appendJSONFloat(dst, a.f)
		case kindStr:
			dst = appendJSONString(dst, a.s)
		default:
			dst = strconv.AppendInt(dst, a.i, 10)
		}
	}
	dst = append(dst, "}}"...)
	return dst
}

// WriteNDJSON writes the events as NDJSON, one event per line.
func WriteNDJSON(w io.Writer, evs []Event) error {
	var buf []byte
	for _, e := range evs {
		buf = AppendNDJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Dump writes everything the ring currently holds as NDJSON: the
// one-call export path for cmd binaries and the /eventsz endpoint.
func Dump(w io.Writer) error { return WriteNDJSON(w, Collect()) }

// ParseNDJSON reads an NDJSON event stream back into events. The
// attribute order and types of a WriteNDJSON round trip are preserved
// exactly: JSON numbers without a fraction or exponent become int64
// attributes, all others float64, strings stay strings (including the
// "NaN"/"+Inf"/"-Inf" spellings of non-finite floats, which return to
// float attributes). Blank lines are skipped.
func ParseNDJSON(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		e, err := parseLine(text)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine decodes one NDJSON event. The attrs object is walked
// token by token so attribute order survives.
func parseLine(line string) (Event, error) {
	var raw struct {
		Seq   uint64          `json:"seq"`
		TNs   int64           `json:"t_ns"`
		Kind  string          `json:"kind"`
		Attrs json.RawMessage `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		return Event{}, err
	}
	e := Event{Seq: raw.Seq, TimeNs: raw.TNs, Kind: raw.Kind}
	if len(raw.Attrs) == 0 {
		return e, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw.Attrs))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return Event{}, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return Event{}, fmt.Errorf("attrs is not an object")
	}
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return Event{}, err
		}
		key, ok := kt.(string)
		if !ok {
			return Event{}, fmt.Errorf("attr key %v is not a string", kt)
		}
		vt, err := dec.Token()
		if err != nil {
			return Event{}, err
		}
		switch v := vt.(type) {
		case json.Number:
			s := v.String()
			if strings.ContainsAny(s, ".eE") {
				f, err := v.Float64()
				if err != nil {
					return Event{}, err
				}
				e.Attrs = append(e.Attrs, Float64(key, f))
			} else {
				i, err := v.Int64()
				if err != nil {
					return Event{}, err
				}
				e.Attrs = append(e.Attrs, Int64(key, i))
			}
		case string:
			switch v {
			case "NaN":
				e.Attrs = append(e.Attrs, Float64(key, math.NaN()))
			case "+Inf":
				e.Attrs = append(e.Attrs, Float64(key, math.Inf(1)))
			case "-Inf":
				e.Attrs = append(e.Attrs, Float64(key, math.Inf(-1)))
			default:
				e.Attrs = append(e.Attrs, String(key, v))
			}
		case bool:
			i := int64(0)
			if v {
				i = 1
			}
			e.Attrs = append(e.Attrs, Int64(key, i))
		case nil:
			e.Attrs = append(e.Attrs, String(key, ""))
		default:
			return Event{}, fmt.Errorf("attr %q has unsupported value %v", key, vt)
		}
	}
	return e, nil
}
