package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestFloat64RoundTrip pins the event-log convention for non-finite
// floats on the request schema: NaN and the infinities ride as the
// strings "NaN"/"+Inf"/"-Inf" and come back bit-for-bit.
func TestFloat64RoundTrip(t *testing.T) {
	cases := []struct {
		in   float64
		wire string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
	}
	for _, c := range cases {
		data, err := json.Marshal(Float64(c.in))
		if err != nil {
			t.Fatalf("marshal %v: %v", c.in, err)
		}
		if string(data) != c.wire {
			t.Errorf("Float64(%v) encoded as %s, want %s", c.in, data, c.wire)
		}
		var back Float64
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if math.IsNaN(c.in) {
			if !math.IsNaN(float64(back)) {
				t.Errorf("NaN round-tripped to %v", back)
			}
		} else if float64(back) != c.in {
			t.Errorf("%v round-tripped to %v", c.in, back)
		}
	}
	var f Float64
	if err := json.Unmarshal([]byte(`"Infinity"`), &f); err == nil {
		t.Error(`unknown alias "Infinity" accepted; want an error`)
	}
}

// TestRequestJSONRoundTrip drives a NaN-bearing request through the
// wire format and back: the canonical bytes, the job id, and every
// field must survive.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := Request{
		Kind:            KindAttribution,
		Seed:            7,
		ChipSeed:        99,
		Chips:           5,
		DistortionFloor: Float64(math.NaN()),
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	wire := req.Canonical()
	if !strings.Contains(string(wire), `"distortion_floor":"NaN"`) {
		t.Fatalf("canonical encoding lost the NaN alias: %s", wire)
	}
	var back Request
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatalf("unmarshal canonical bytes: %v", err)
	}
	if !math.IsNaN(float64(back.DistortionFloor)) {
		t.Errorf("DistortionFloor came back %v, want NaN", back.DistortionFloor)
	}
	if err := back.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Canonical(), wire) {
		t.Errorf("round-trip changed the canonical bytes:\n got %s\nwant %s", back.Canonical(), wire)
	}
	if back.JobID() != req.JobID() {
		t.Errorf("round-trip changed the job id: %s vs %s", back.JobID(), req.JobID())
	}
}

// spellings are four JSON spellings of one request.
var spellings = []string{
	`{"kind":"experiments","experiments":["fig1a"]}`,
	`{ "experiments" : [ "fig1a" ] , "kind" : "experiments" }`,
	`{"experiments":["fig1a"],"seed":1,"chips":20,"chip_seed":2014,"format":"text"}`,
	`{"schema":1,"experiments":["fig1a"]}`,
}

// TestNormalizeCanonicalizes pins that JSON spelling differences —
// whitespace, key order, explicitly-spelled defaults — all normalize
// to the same job id, which is what request coalescing keys on.
func TestNormalizeCanonicalizes(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range spellings {
		var req Request
		if err := json.Unmarshal([]byte(s), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", s, err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatalf("normalize %s: %v", s, err)
		}
		ids[req.JobID()] = true
	}
	if len(ids) != 1 {
		t.Errorf("equivalent spellings produced %d distinct job ids: %v", len(ids), ids)
	}
}

// rejected are requests Normalize refuses, with the error each dies of.
var rejected = []struct {
	name string
	req  Request
	want string
}{
	{"future schema", Request{Schema: 2}, "schema version"},
	{"unknown kind", Request{Kind: "paretoscan"}, "unknown kind"},
	{"unknown experiment", Request{Experiments: []string{"fig9z"}}, "unknown experiment"},
	{"bad format", Request{Format: "yaml"}, "unknown format"},
	{"chips overflow", Request{Chips: maxChips + 1}, "out of range"},
	{"negative chips", Request{Chips: -1}, "out of range"},
	{"attribution format", Request{Kind: KindAttribution, Format: "text"}, "not used"},
	{"attribution experiments", Request{Kind: KindAttribution, Experiments: []string{"fig1a"}}, "not used"},
}

// TestNormalizeRejects covers the validation errors a request can die
// of before it costs a queue slot.
func TestNormalizeRejects(t *testing.T) {
	for _, c := range rejected {
		err := c.req.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// FuzzRequestNormalize drives arbitrary bodies through the decoder the
// HTTP handler uses. For every body that decodes and normalizes,
// Normalize is idempotent, and the canonical bytes decode, normalize
// and re-encode to themselves under the same job id: a request cannot
// drift into a second job by being echoed back.
func FuzzRequestNormalize(f *testing.F) {
	for _, body := range spellings {
		f.Add([]byte(body))
	}
	for _, c := range rejected {
		body, err := json.Marshal(c.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, floor := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`, `-0`} {
		f.Add([]byte(`{"kind":"attribution","distortion_floor":` + floor + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil || req.Normalize() != nil {
			return
		}
		canon, id := req.Canonical(), req.JobID()
		if err := req.Normalize(); err != nil {
			t.Fatalf("Normalize rejected its own output %s: %v", canon, err)
		}
		if got := req.Canonical(); !bytes.Equal(got, canon) {
			t.Fatalf("Normalize is not idempotent:\n once  %s\n twice %s", canon, got)
		}
		back, err := decodeRequest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", canon, err)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("canonical bytes %s do not normalize: %v", canon, err)
		}
		if got := back.Canonical(); !bytes.Equal(got, canon) || back.JobID() != id {
			t.Fatalf("canonical bytes re-encode differently:\n got  %s (%s)\n want %s (%s)", got, back.JobID(), canon, id)
		}
	})
}

// TestExecuteDeterministic pins the service's core contract end to
// end: the same request executes to byte-identical response bodies,
// even across a full cache reset in between.
func TestExecuteDeterministic(t *testing.T) {
	req := Request{Experiments: []string{"fig1a"}, Chips: 2}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		resp, err := Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := resp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := run()
	experiments.ResetCaches()
	second := run()
	if !bytes.Equal(first, second) {
		t.Errorf("identical requests produced different bodies (%d vs %d bytes)", len(first), len(second))
	}
	var resp Response
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if resp.Schema != SchemaVersion || resp.JobID != req.JobID() {
		t.Errorf("response header wrong: schema %d, job %s", resp.Schema, resp.JobID)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "fig1a" || resp.Results[0].Output == "" {
		t.Errorf("response results wrong: %+v", resp.Results)
	}
}

// TestExecuteAttributionFloor exercises the attribution kind and the
// DistortionFloor filter, including the NaN "no floor" spelling.
func TestExecuteAttributionFloor(t *testing.T) {
	base := Request{Kind: KindAttribution, Chips: 2}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	resp, err := Execute(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	att := resp.Attribution
	if att == nil || att.Bench != "hotspot" || len(att.Cores) == 0 {
		t.Fatalf("attribution response malformed: %+v", att)
	}

	nan := base
	nan.DistortionFloor = Float64(math.NaN())
	respNaN, err := Execute(context.Background(), nan)
	if err != nil {
		t.Fatal(err)
	}
	if len(respNaN.Attribution.Cores) != len(att.Cores) {
		t.Errorf("NaN floor filtered rows: %d vs %d", len(respNaN.Attribution.Cores), len(att.Cores))
	}

	floored := base
	floored.DistortionFloor = Float64(math.Inf(1))
	respInf, err := Execute(context.Background(), floored)
	if err != nil {
		t.Fatal(err)
	}
	if len(respInf.Attribution.Cores) != 0 {
		t.Errorf("+Inf floor kept %d rows, want 0", len(respInf.Attribution.Cores))
	}
}
