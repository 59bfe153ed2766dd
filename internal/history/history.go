// Package history is the cross-run observability tier: the run
// document, an append-only NDJSON store of those documents, a
// noise-aware regression gate, and a trend report renderer.
//
// Every other observability surface in this repository — telemetry
// counters, histograms and convergence series, benchmark results —
// describes exactly one run. This package makes those surfaces
// longitudinal: a Record is a flat metric map harvested from whichever
// of them a run produced, stamped with enough identity
// (tool, kind, VCS revision, dirty flag, GOMAXPROCS) to know which
// records are comparable, and appended as one NDJSON line to a store
// directory.
//
// A Record is also the run's one document of what it produced
// (document.go): the resolved flag map and a SHA-256 of every artifact
// the run wrote, each stdout block included. `accordion -manifest FILE`
// writes the same value as indented JSON that `-history DIR` appends,
// and `accordion -verify-manifest FILE` re-hashes its files. So a
// record says which bytes a run produced, not only what it cost. A
// daemon's numbers reach the store as a `/telemetryz` scrape passed
// to `accordionhist append -telemetry`. On top of the store sit:
//
//   - Check: the regression gate. The newest record is compared
//     against a baseline window of earlier records sharing its
//     (tool, kind, gomaxprocs) identity, using mathx.Welford for the
//     baseline statistics. A metric is flagged only when it moves in
//     its registered bad direction (directions.go) beyond the
//     baseline's 95% band plus a relative margin — so run-to-run
//     noise inside the band never pages anyone, and an identical
//     re-run (zero band, value on the mean) is never a false
//     positive.
//   - WriteTextReport: per-metric trend lines (unicode sparklines)
//     over the last K comparable records.
//
// Per-layer cost comes from the run's own stages: an `accordion
// -history` record carries each traced stage's self time as
// layer.<stage>.self_ns, which `accordionhist report -metric
// 'layer.*'` trends. Function-level profiles are one toolchain command
// away (`go test -bench ... -cpuprofile`, then `go tool pprof -top`),
// so the store keeps none. Older records that carry a `profile` block
// still load; the block is ignored.
//
// The store is plain NDJSON so records are diffable, committable
// (HISTORY/records.ndjson at the repo root is the checked-in
// baseline CI replays), and appendable from the benchmark's results
// via cmd/accordionhist.
package history

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Schema is the record schema version written by this package. Loaders
// accept only this version; bumping it is a reviewable event.
const Schema = 1

// Record is one run's document: its harvested observation set, and
// the flags and artifacts that say what it produced. Metrics is flat
// on purpose: the gate and the report treat every value as an
// independently trended time series keyed by its dotted name
// (harvest.go documents the namespace). Flags and Artifacts are
// omitted when empty, so schema 1 covers records with and without
// them.
type Record struct {
	Schema      int    `json:"schema"`
	Tool        string `json:"tool"` // accordion, or accordionhist append's -tool
	Kind        string `json:"kind"` // run | bench
	StartUnixNs int64  `json:"start_unix_ns,omitempty"`
	WallMs      int64  `json:"wall_ms,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
	// GOMAXPROCS is the run's parallelism, the last part of its compat
	// key: the process's GOMAXPROCS, except in accordion's document,
	// which stamps its worker-pool width (-j), and in a benchmark
	// record, which takes the result's own.
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	VCSRevision string             `json:"vcs_revision,omitempty"`
	VCSDirty    bool               `json:"vcs_dirty,omitempty"`
	Args        []string           `json:"args,omitempty"`
	Flags       map[string]string  `json:"flags,omitempty"`
	Note        string             `json:"note,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Artifacts   []Artifact         `json:"artifacts,omitempty"`
}

// NewRecord starts a record for the named tool and kind, stamped with
// the process's identity: wall-clock start, Go version, GOMAXPROCS,
// argv, and whatever VCS metadata the binary carries (populated when
// built inside the module with VCS stamping; AddBenchJSON overrides it
// from a benchmark result).
func NewRecord(tool, kind string) Record {
	r := Record{
		Schema:      Schema,
		Tool:        tool,
		Kind:        kind,
		StartUnixNs: time.Now().UnixNano(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Args:        append([]string(nil), os.Args[1:]...),
		Metrics:     map[string]float64{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				r.VCSRevision = s.Value
			case "vcs.modified":
				r.VCSDirty = s.Value == "true"
			}
		}
	}
	return r
}

// Set records one metric value. NaN and infinities are dropped —
// encoding/json refuses them, and a metric that failed to compute is
// not a trend point.
func (r *Record) Set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// CompatKey is the comparability identity: records compare only
// against records from the same tool and kind measured at the same
// parallelism. Cross-machine or cross-shape baselines would make the
// gate fire on hardware, not code.
func (r *Record) CompatKey() string {
	return fmt.Sprintf("%s/%s/j%d", r.Tool, r.Kind, r.GOMAXPROCS)
}

// Validate checks the invariants Append enforces.
func (r *Record) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("history: record schema %d, want %d", r.Schema, Schema)
	}
	if r.Tool == "" || r.Kind == "" {
		return fmt.Errorf("history: record missing tool (%q) or kind (%q)", r.Tool, r.Kind)
	}
	for name, v := range r.Metrics {
		if name == "" {
			return fmt.Errorf("history: record has an empty metric name")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("history: metric %s is not finite", name)
		}
	}
	return nil
}

// MetricNames returns the record's metric names sorted.
func (r *Record) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
