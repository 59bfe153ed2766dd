package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The event log records *simulation-domain* events: a chip drawn from
// the Monte-Carlo factory, a quality front measured, an output scored
// against its reference, a fault a ledger attributes to a core, an
// atlas built. It records whenever telemetry does, under the same
// switch: while telemetry is off NewEvent returns a nil *EventBuilder
// whose methods are no-ops, so a disabled emit site is one atomic load
// and no allocation (pinned by TestTelemetryDisabledOverhead).
//
// The log exports as NDJSON, one JSON object per line with the
// attributes in emission order, which ParseNDJSON reads back into
// identical events, so jq, CI gates and the /eventsz endpoint need no
// schema.
//
// Events land in a ring that grows on demand up to eventCap events and
// then overwrites its oldest, counting each loss in the events.dropped
// gauge. Each event is stored as its encoded line, so an event costs
// its bytes and one string header. With telemetry on, a default
// `accordion all` logs 238 events (42 chip.drawn, 7 front.measured,
// 189 quality.scored) and a 20,000-chip population 20,028. Per-task
// fault notes are counted (fault.drops, fault.injected) and logged
// only under a ledger.

// eventCap bounds the event ring.
const eventCap = 1 << 16

// The event log's self-accounting: a /metricsz scrape shows whether
// events are flowing and whether the ring has overwritten any
// (events_dropped > 0 means the dump is missing its oldest events).
// Only the ring writes them.
var (
	telEventsEmitted = GetCounter("events.emitted")
	telEventsDropped = GetGauge("events.dropped")
)

// eventEpoch anchors event timestamps, in unix nanoseconds; Reset
// re-anchors it.
var eventEpoch atomic.Int64

func init() { eventEpoch.Store(time.Now().UnixNano()) }

// attrKind discriminates the typed attribute payloads.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindFloat
	kindStr
)

// Attr is one typed key/value annotation on a parsed event.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

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

// Event is one recorded domain event, as Events and ParseNDJSON return
// it. Seq is the emission sequence number (dense from 0 per Reset, so a
// gap at the front reveals ring overwrites); TimeNs is nanoseconds
// since the event epoch.
type Event struct {
	Seq    uint64
	TimeNs int64
	Kind   string
	Attrs  []Attr
}

// EventBuilder accumulates one event, encoding each attribute as it
// arrives. A nil *EventBuilder, which NewEvent returns while telemetry
// is off, is a valid no-op receiver for every method, so emit sites
// need no guards.
type EventBuilder struct {
	// line is the event's NDJSON line after its seq field, up to the
	// attributes recorded so far: "t_ns":…,"kind":…,"attrs":{…
	line []byte
}

// NewEvent starts an event of the given kind ("chip.drawn",
// "quality.scored", ...). It returns nil while telemetry is off.
func NewEvent(kind string) *EventBuilder {
	if !enabled.Load() {
		return nil
	}
	return newEvent(kind, time.Now().UnixNano()-eventEpoch.Load())
}

// newEvent starts an event stamped tNs nanoseconds after the epoch.
func newEvent(kind string, tNs int64) *EventBuilder {
	b := &EventBuilder{line: make([]byte, 0, 128)}
	b.line = append(b.line, `"t_ns":`...)
	b.line = strconv.AppendInt(b.line, tNs, 10)
	b.line = append(b.line, `,"kind":`...)
	b.line = appendJSONString(b.line, kind)
	b.line = append(b.line, `,"attrs":{`...)
	return b
}

// key appends an attribute key, after a comma unless it is the first:
// only the attrs object's opening brace ends the line before then.
func (b *EventBuilder) key(k string) {
	if b.line[len(b.line)-1] != '{' {
		b.line = append(b.line, ',')
	}
	b.line = appendJSONString(b.line, k)
	b.line = append(b.line, ':')
}

// Int annotates the event with an integer value. Nil-safe, chainable.
func (b *EventBuilder) Int(key string, v int64) *EventBuilder {
	if b == nil {
		return nil
	}
	b.key(key)
	b.line = strconv.AppendInt(b.line, v, 10)
	return b
}

// Float annotates the event with a float value. Nil-safe, chainable.
func (b *EventBuilder) Float(key string, v float64) *EventBuilder {
	if b == nil {
		return nil
	}
	b.key(key)
	b.line = appendJSONFloat(b.line, v)
	return b
}

// Str annotates the event with a string value. Nil-safe, chainable.
func (b *EventBuilder) Str(key, v string) *EventBuilder {
	if b == nil {
		return nil
	}
	b.key(key)
	b.line = appendJSONString(b.line, v)
	return b
}

// Emit records the event in the ring. Safe on nil. An event built
// while telemetry was on still lands if the switch flips mid-flight.
func (b *EventBuilder) Emit() {
	if b == nil {
		return
	}
	eventLog.record(b.rest())
}

// rest closes the event and returns its line after the seq field.
func (b *EventBuilder) rest() string { return string(append(b.line, "}}"...)) }

// eventRing is the bounded event store. Events are orders of
// magnitude rarer than counter bumps, so one mutex suffices.
type eventRing struct {
	mu    sync.Mutex
	limit int      // eventCap; tests lower it
	lines []string // event seq's line sits at seq % limit
	next  uint64   // events recorded since Reset, and the next Seq
}

var eventLog = eventRing{limit: eventCap}

// record stores one event's line, overwriting the oldest once the
// ring is full.
func (r *eventRing) record(line string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lines) < r.limit {
		r.lines = append(r.lines, line)
	} else {
		r.lines[r.next%uint64(r.limit)] = line
		telEventsDropped.v.Add(1)
	}
	r.next++
	telEventsEmitted.v.Add(1)
}

// reset discards every event and re-anchors the event clock.
func (r *eventRing) reset() {
	r.mu.Lock()
	r.lines = nil
	r.next = 0
	r.mu.Unlock()
	eventEpoch.Store(time.Now().UnixNano())
}

// snapshot returns the lines the ring holds, oldest first, and the
// first one's Seq.
func (r *eventRing) snapshot() (first uint64, lines []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first = r.next - uint64(len(r.lines))
	lines = make([]string, 0, len(r.lines))
	for seq := first; seq < r.next; seq++ {
		lines = append(lines, r.lines[seq%uint64(r.limit)])
	}
	return first, lines
}

// WriteEvents writes every event the ring holds as NDJSON, oldest
// first: the export behind -events and /eventsz.
func WriteEvents(w io.Writer) error {
	first, lines := eventLog.snapshot()
	var buf []byte
	for i, rest := range lines {
		buf = appendEventLine(buf[:0], first+uint64(i), rest)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// EventsHandler returns the /eventsz endpoint: the ring's contents as
// NDJSON. An empty body means telemetry is off or nothing has happened
// yet.
func EventsHandler() http.Handler {
	return noCache("application/x-ndjson; charset=utf-8", WriteEvents)
}

// appendEventLine renders event seq's full NDJSON line, newline
// included, from its stored rest.
func appendEventLine(dst []byte, seq uint64, rest string) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ',')
	dst = append(dst, rest...)
	return append(dst, '\n')
}

// Events returns every event the ring holds, oldest first, decoded.
func Events() []Event {
	var buf bytes.Buffer
	if err := WriteEvents(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	evs, err := ParseNDJSON(&buf)
	if err != nil {
		panic(fmt.Sprintf("telemetry: the event ring holds a line it cannot parse: %v", err))
	}
	return evs
}

// appendJSONFloat renders a float as a JSON number that ParseNDJSON
// reads back as a float: integral values gain a ".0" marker so they
// cannot be mistaken for int64 attributes, and the non-finite values
// JSON cannot carry become the strings "NaN", "+Inf", "-Inf".
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(dst, fmt.Sprintf("%v", v))
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	if !bytes.ContainsAny(dst[n:], ".eE") {
		dst = append(dst, '.', '0')
	}
	return dst
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

// ParseNDJSON reads an NDJSON event stream back into events. The
// attribute order and types of a WriteEvents dump are preserved
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
		a := Attr{Key: key}
		switch v := vt.(type) {
		case json.Number:
			s := v.String()
			if strings.ContainsAny(s, ".eE") {
				a.kind = kindFloat
				a.f, err = v.Float64()
			} else {
				a.i, err = v.Int64()
			}
			if err != nil {
				return Event{}, err
			}
		case string:
			switch v {
			case "NaN":
				a.kind, a.f = kindFloat, math.NaN()
			case "+Inf":
				a.kind, a.f = kindFloat, math.Inf(1)
			case "-Inf":
				a.kind, a.f = kindFloat, math.Inf(-1)
			default:
				a.kind, a.s = kindStr, v
			}
		case bool:
			if v {
				a.i = 1
			}
		case nil:
			a.kind = kindStr
		default:
			return Event{}, fmt.Errorf("attr %q has unsupported value %v", key, vt)
		}
		e.Attrs = append(e.Attrs, a)
	}
	return e, nil
}
