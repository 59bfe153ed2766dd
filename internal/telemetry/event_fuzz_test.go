package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzEventsNDJSONRoundTrip drives the NDJSON serializer with events
// built from arbitrary kinds, keys, and values — unicode, control
// characters, huge negatives, NaN and the infinities — and pins the
// round-trip contract ParseNDJSON documents for the lines the event
// builder writes: types, order, and values come back exactly, and
// re-serializing the parsed event reproduces the original bytes.
// Strings are expected back UTF-8-coerced: JSON cannot carry invalid
// UTF-8, and encoding/json replaces each invalid byte with U+FFFD.
func FuzzEventsNDJSONRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), "chip.drawn", "vdd_mv", int64(850), "u", 0.123, "note", "ok")
	f.Add(uint64(7), int64(-3), "front.measured", "", int64(-1), "f", math.Inf(-1), "s", "line\nbreak")
	f.Add(uint64(1<<63), int64(1)<<62, "q", "k", int64(1)<<62, "k", math.NaN(), "k", `quote"and\slash`)
	f.Add(uint64(3), int64(9), "field.sampled", "n", int64(4096), "sigma", -0.0, "σ", "µ-unicode")
	f.Fuzz(func(t *testing.T, seq uint64, tns int64, kind, ik string, iv int64, fk string, fv float64, sk, sv string) {
		in := Event{
			Seq:    seq,
			TimeNs: tns,
			Kind:   kind,
			Attrs: []Attr{
				{Key: ik, i: iv},
				{Key: fk, kind: kindFloat, f: fv},
				{Key: sk, kind: kindStr, s: sv},
			},
		}
		line := encodeEvent(in)
		evs, err := ParseNDJSON(bytes.NewReader(line))
		if err != nil {
			t.Fatalf("ParseNDJSON(%q): %v", line, err)
		}
		if len(evs) != 1 {
			t.Fatalf("ParseNDJSON(%q) returned %d events, want 1", line, len(evs))
		}
		out := evs[0]
		if out.Seq != in.Seq || out.TimeNs != in.TimeNs || out.Kind != utf8Coerce(in.Kind) {
			t.Fatalf("header round trip: got (%d, %d, %q), want (%d, %d, %q)",
				out.Seq, out.TimeNs, out.Kind, in.Seq, in.TimeNs, utf8Coerce(in.Kind))
		}
		if len(out.Attrs) != len(in.Attrs) {
			t.Fatalf("attr count round trip: got %d, want %d", len(out.Attrs), len(in.Attrs))
		}
		for i, want := range in.Attrs {
			got := out.Attrs[i]
			if got.Key != utf8Coerce(want.Key) {
				t.Fatalf("attr %d key: got %q, want %q", i, got.Key, utf8Coerce(want.Key))
			}
			if !sameAttrValue(got.Value(), want.Value()) {
				t.Fatalf("attr %d (%q): got %T %v, want %T %v",
					i, want.Key, got.Value(), got.Value(), want.Value(), want.Value())
			}
		}
		// For valid-UTF-8 inputs the serialized form is canonical:
		// parse → serialize is the identity on bytes. (Invalid bytes
		// serialize as the � escape the first time and as the raw
		// replacement rune after a round trip, so only the parsed form
		// is a fixed point there.)
		if utf8.ValidString(kind) && utf8.ValidString(ik) && utf8.ValidString(fk) &&
			utf8.ValidString(sk) && utf8.ValidString(sv) {
			again := encodeEvent(out)
			if !bytes.Equal(line, again) {
				t.Fatalf("re-serialization differs:\n first %s\nsecond %s", line, again)
			}
		}
	})
}

// encodeEvent renders e through the event builder, as the ring stores
// it and WriteEvents dumps it.
func encodeEvent(e Event) []byte {
	b := newEvent(e.Kind, e.TimeNs)
	for _, a := range e.Attrs {
		switch a.kind {
		case kindFloat:
			b.Float(a.Key, a.f)
		case kindStr:
			b.Str(a.Key, a.s)
		default:
			b.Int(a.Key, a.i)
		}
	}
	return appendEventLine(nil, e.Seq, b.rest())
}

// sameAttrValue compares round-tripped attribute values: int64
// exactly, strings up to UTF-8 coercion, float64 bitwise except that
// any NaN payload maps to the one canonical "NaN" spelling.
func sameAttrValue(got, want any) bool {
	if ws, ok := want.(string); ok {
		ws = utf8Coerce(ws)
		// The NDJSON encoding spells non-finite floats as strings, so a
		// string attribute that IS one of those spellings aliases back
		// to a float on parse — a documented corner of the format.
		switch ws {
		case "NaN":
			f, ok := got.(float64)
			return ok && math.IsNaN(f)
		case "+Inf":
			return got == math.Inf(1)
		case "-Inf":
			return got == math.Inf(-1)
		}
		return got == ws
	}
	if wf, ok := want.(float64); ok {
		gf, ok := got.(float64)
		if !ok {
			return false
		}
		if math.IsNaN(wf) {
			return math.IsNaN(gf)
		}
		return math.Float64bits(gf) == math.Float64bits(wf)
	}
	return got == want
}

// utf8Coerce replaces each invalid UTF-8 byte with U+FFFD, exactly as
// encoding/json does when serializing (ranging a string yields one
// RuneError per invalid byte).
func utf8Coerce(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(r)
	}
	return b.String()
}
