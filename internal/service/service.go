// Package service lifts the experiment runner's configuration into
// serializable, schema-versioned request/response types and provides
// the job-queue core of the accordiond daemon. The same Request drives
// the CLI, the HTTP service, and (later) sharded workers: a request is
// normalized into a canonical byte encoding, the SHA-256 of those
// bytes is the job id, and the response body is a pure function of the
// request — same request, byte-identical response — because every seed
// the simulation consumes travels inside the request itself.
//
// The package is a simulation package under accordionvet's
// determinism analyzer: it never reads the wall clock (the server's
// clock is injected via Config.Now and feeds only job status and
// latency telemetry — never response bytes), never
// draws from global math/rand, and never spawns goroutines. Worker
// loops are plain blocking methods the daemon runs on goroutines it
// owns, so the scheduling nondeterminism lives in cmd/accordiond, not
// here.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/experiments"
)

// SchemaVersion is the wire-format version of Request and Response. A
// request may carry 0 (meaning "current") or the exact version;
// anything else is rejected so a future schema bump cannot silently
// reinterpret old payloads.
const SchemaVersion = 1

// Float64 is a float64 whose JSON encoding follows the repository's
// convention for non-finite values, which trace annotations share: NaN
// and the infinities, which JSON cannot carry as numbers, become the
// strings "NaN", "+Inf" and "-Inf" and round-trip back to the same
// bits.
type Float64 float64

// MarshalJSON encodes finite values as numbers and non-finite values
// as their string aliases.
func (f Float64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts a JSON number or one of the three non-finite
// aliases.
func (f *Float64) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = Float64(math.NaN())
		case "+Inf":
			*f = Float64(math.Inf(1))
		case "-Inf":
			*f = Float64(math.Inf(-1))
		default:
			return fmt.Errorf("service: float field: unknown alias %q (want NaN, +Inf or -Inf)", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float64(v)
	return nil
}

// Request kinds.
const (
	// KindExperiments runs registered experiments by id (the same ids
	// `accordion list` prints) and returns their rendered tables.
	KindExperiments = "experiments"
	// KindAttribution runs the fault-attribution pass on the
	// representative chip and returns the per-core distortion ledger.
	KindAttribution = "attribution"
)

// Request is one simulation query. The zero value of every field means
// "use the recorded default" (the same defaults the CLI uses), so
// {"kind":"experiments","experiments":["fig1a"]} is a complete request.
// All randomness is seeded from Seed and ChipSeed: a normalized
// request fully determines the response bytes.
type Request struct {
	// Schema is the wire-format version: 0 or SchemaVersion.
	Schema int `json:"schema"`
	// Kind selects the query type; empty means KindExperiments.
	Kind string `json:"kind,omitempty"`
	// Experiments lists registered experiment ids; empty means every
	// id in presentation order (the CLI's `all`).
	Experiments []string `json:"experiments,omitempty"`
	// Seed is the master seed for workloads and fault streams (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// ChipSeed seeds the representative chip sample (0 = 2014).
	ChipSeed int64 `json:"chip_seed,omitempty"`
	// Chips is the Monte-Carlo population size (0 = 20).
	Chips int `json:"chips,omitempty"`
	// Format renders experiment tables as "text" (default) or "csv".
	Format string `json:"format,omitempty"`
	// DistortionFloor drops attribution rows whose per-core distortion
	// is below it. 0 keeps every engaged core; NaN is the explicit
	// "no floor" spelling and also keeps everything.
	DistortionFloor Float64 `json:"distortion_floor,omitempty"`
}

// maxChips mirrors the CLI's population sanity cap.
const maxChips = 100000

// Normalize validates the request and fills every defaulted field in
// place, so the canonical encoding (and therefore the job id) of
// {"seed":1} and {} agree. It returns an error for an unknown schema
// version, kind, format, or experiment id, and for out-of-range sizes;
// errors are detected here, before the request costs a queue slot.
func (r *Request) Normalize() error {
	switch r.Schema {
	case 0:
		r.Schema = SchemaVersion
	case SchemaVersion:
	default:
		return fmt.Errorf("service: unsupported schema version %d (this server speaks %d)", r.Schema, SchemaVersion)
	}
	if r.Kind == "" {
		r.Kind = KindExperiments
	}
	if r.Kind != KindExperiments && r.Kind != KindAttribution {
		return fmt.Errorf("service: unknown kind %q (want %s or %s)", r.Kind, KindExperiments, KindAttribution)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.ChipSeed == 0 {
		r.ChipSeed = 2014
	}
	if r.Chips == 0 {
		r.Chips = 20
	}
	if r.Chips < 1 || r.Chips > maxChips {
		return fmt.Errorf("service: chips %d out of range [1, %d]", r.Chips, maxChips)
	}
	switch r.Kind {
	case KindExperiments:
		if r.Format == "" {
			r.Format = "text"
		}
		if r.Format != "text" && r.Format != "csv" {
			return fmt.Errorf("service: unknown format %q (want text or csv)", r.Format)
		}
		if len(r.Experiments) == 0 {
			r.Experiments = experiments.IDs()
		}
		reg := experiments.Registry()
		for _, id := range r.Experiments {
			if _, ok := reg[id]; !ok {
				return fmt.Errorf("service: unknown experiment %q", id)
			}
		}
	case KindAttribution:
		if r.Format != "" {
			return fmt.Errorf("service: format %q is not used by %s requests", r.Format, KindAttribution)
		}
		if len(r.Experiments) != 0 {
			return fmt.Errorf("service: experiments list is not used by %s requests", KindAttribution)
		}
	}
	return nil
}

// Canonical returns the request's canonical byte encoding: the JSON of
// the normalized struct, whose field order and float formatting are
// fixed. Two requests that differ only in JSON whitespace, key order,
// or defaulted fields canonicalize identically.
func (r Request) Canonical() []byte {
	data, err := json.Marshal(r)
	if err != nil {
		// Request holds only marshalable fields; Float64's marshaler
		// never fails. Reaching here is a programming error.
		panic(fmt.Sprintf("service: canonical encoding failed: %v", err))
	}
	return data
}

// JobID derives the job identifier from the canonical request bytes:
// the first 16 hex digits of their SHA-256. Identical requests map to
// the identical job, which is what lets the server coalesce them.
func (r Request) JobID() string {
	sum := sha256.Sum256(r.Canonical())
	return hex.EncodeToString(sum[:8])
}

// Result is one experiment's rendered output.
type Result struct {
	ID     string `json:"id"`
	Output string `json:"output"`
}

// CoreShare is one engaged core's slice of an attribution ledger.
type CoreShare struct {
	Core       int     `json:"core"`
	Cluster    int     `json:"cluster"`
	Faults     int64   `json:"faults"`
	Distortion Float64 `json:"distortion"`
	Share      Float64 `json:"share"`
}

// Attribution is the fault-attribution ledger in wire form.
type Attribution struct {
	Bench           string      `json:"bench"`
	Mode            string      `json:"mode"`
	ChipSeed        int64       `json:"chip_seed"`
	EngagedCores    int         `json:"engaged_cores"`
	Injections      int64       `json:"injections"`
	TotalDistortion Float64     `json:"total_distortion"`
	Cores           []CoreShare `json:"cores"`
}

// Response is the deterministic answer to a Request: it echoes the
// normalized request (so a response is self-describing) and carries
// either the rendered experiment tables or the attribution ledger.
// Nothing time- or load-dependent is allowed in here — timings live in
// the job status and cache statistics on /telemetryz, never in the
// response body.
type Response struct {
	Schema      int          `json:"schema"`
	JobID       string       `json:"job_id"`
	Kind        string       `json:"kind"`
	Request     Request      `json:"request"`
	Results     []Result     `json:"results,omitempty"`
	Attribution *Attribution `json:"attribution,omitempty"`
}

// Encode renders the response as its canonical wire bytes (compact
// JSON plus a trailing newline).
func (r *Response) Encode() ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("service: encoding response: %w", err)
	}
	return append(data, '\n'), nil
}

// Execute runs a normalized request to completion on the calling
// goroutine and returns its response. The response depends only on
// the request: experiments run through the same deterministic drivers
// the CLI uses, in the order the ids were given.
func Execute(ctx context.Context, req Request) (*Response, error) {
	resp := &Response{
		Schema:  req.Schema,
		JobID:   req.JobID(),
		Kind:    req.Kind,
		Request: req,
	}
	cfg := experiments.Config{Seed: req.Seed, ChipSeed: req.ChipSeed, Chips: req.Chips}
	switch req.Kind {
	case KindExperiments:
		results, err := experiments.RunMany(ctx, cfg, req.Experiments)
		if err != nil {
			return nil, err
		}
		if err := experiments.FirstErr(results); err != nil {
			return nil, err
		}
		resp.Results = make([]Result, 0, len(results))
		for _, r := range results {
			var buf strings.Builder
			for _, t := range r.Tables {
				var err error
				if req.Format == "csv" {
					err = t.RenderCSV(&buf)
				} else {
					err = t.Render(&buf)
				}
				if err != nil {
					return nil, err
				}
			}
			resp.Results = append(resp.Results, Result{ID: r.ID, Output: buf.String()})
		}
		return resp, nil
	case KindAttribution:
		res, err := experiments.RunAttribution(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rep := res.Report
		att := &Attribution{
			Bench:           res.Bench,
			Mode:            res.Mode,
			ChipSeed:        rep.ChipSeed,
			EngagedCores:    rep.EngagedCores,
			Injections:      rep.Injections,
			TotalDistortion: Float64(rep.TotalDistortion),
			Cores:           make([]CoreShare, 0, len(rep.Cores)),
		}
		floor := float64(req.DistortionFloor)
		for _, c := range rep.Cores {
			if !math.IsNaN(floor) && c.Distortion < floor {
				continue
			}
			att.Cores = append(att.Cores, CoreShare{
				Core:       c.Core,
				Cluster:    c.Cluster,
				Faults:     c.Faults,
				Distortion: Float64(c.Distortion),
				Share:      Float64(c.Share),
			})
		}
		resp.Attribution = att
		return resp, nil
	}
	return nil, fmt.Errorf("service: unknown kind %q (request not normalized?)", req.Kind)
}
