package history

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/telemetry"
)

// This file maps the observability surfaces a record is harvested from
// into the flat metric namespace a Record trends:
//
//	counter.<name>                           telemetry counters
//	gauge.<name>                             telemetry gauges
//	hist.<name>.{count,mean,p50,p95,p99,max} telemetry histograms
//	converge.<series>.{count,mean,std,ci95}  telemetry series
//	cache.<name>.hit_rate                    derived from cache.<name>.{hits,misses}
//	runner.<id>.wall_ms                      accordion's per-experiment wall times
//	layer.<stage>.self_ns                    accordion's per-stage self times, from its trace
//	bench.<dotted json path>                 numeric leaves of a benchmark result
//
// The names are data, not code: they are record map keys, so the
// analysis catalog, which governs telemetry's metric and event names,
// does not cover them.
//
// A layer's self time is what its stage calls spent outside the stages
// nested in them (telemetry.SelfTimes), so the layers of one record
// sum to the traced wall time. `accordionhist report -metric 'layer.*'`
// trends them; no direction gates them. For the functions inside a
// layer, profile a benchmark with the toolchain instead:
//
//	go test -run '^$' -bench 'BenchmarkRunAllSequential$' -benchtime 1x -cpuprofile cpu.out -o repro.test .
//	go tool pprof -top repro.test cpu.out

// AddTelemetry folds a telemetry snapshot into the record. A series
// lands under converge.<series>, the name the Monte-Carlo convergence
// statistics have always had in the store; its CI95 is recorded only
// once it is finite (two observations).
func (r *Record) AddTelemetry(snap telemetry.Snapshot) {
	for _, c := range snap.Counters {
		r.Set("counter."+c.Name, float64(c.Value))
	}
	for _, g := range snap.Gauges {
		r.Set("gauge."+g.Name, float64(g.Value))
	}
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		base := "hist." + h.Name + "."
		r.Set(base+"count", float64(h.Count))
		r.Set(base+"mean", h.Mean)
		r.Set(base+"p50", float64(h.P50))
		r.Set(base+"p95", float64(h.P95))
		r.Set(base+"p99", float64(h.P99))
		r.Set(base+"max", float64(h.Max))
	}
	for _, s := range snap.Series {
		if s.Count == 0 {
			continue
		}
		base := "converge." + s.Name + "."
		r.Set(base+"count", float64(s.Count))
		r.Set(base+"mean", s.Mean)
		if s.Count >= 2 {
			r.Set(base+"std", s.Std)
			r.Set(base+"ci95", s.CI95)
		}
	}
	// cache.<name>.hit_rate, derived from the memo caches' hit/miss
	// counter pairs.
	for _, c := range telemetry.Caches(snap.Counters) {
		if total := c.Hits + c.Misses; total > 0 {
			r.Set("cache."+c.Name+".hit_rate", float64(c.Hits)/float64(total))
		}
	}
}

// AddBenchJSON folds one benchmark result document (what
// `benchmark/run.sh --out` writes) into the record. The top-level
// identity keys it may stamp (vcs_revision, vcs_dirty, gomaxprocs) are
// lifted into the record's identity fields; a result that stamps a
// revision also owns the dirty bit, clean unless it says otherwise,
// since the bit of the binary ingesting it describes another build.
// Every numeric leaf elsewhere lands under "bench." with its dotted
// path. Booleans become 0/1 so gates can trend them; strings and nulls
// carry no trendable value and are skipped.
func (r *Record) AddBenchJSON(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("history: bench blob: %w", err)
	}
	dirty, hasDirty := doc["vcs_dirty"].(bool)
	if rev, ok := doc["vcs_revision"].(string); ok && rev != "" {
		r.VCSRevision, r.VCSDirty = rev, dirty
	} else if hasDirty {
		r.VCSDirty = dirty
	}
	if gmp, ok := doc["gomaxprocs"].(float64); ok && gmp > 0 && !math.IsInf(gmp, 0) {
		r.GOMAXPROCS = int(gmp)
	}
	for _, k := range sortedKeys(doc) {
		switch k {
		case "vcs_revision", "vcs_dirty", "gomaxprocs":
			continue
		}
		flattenJSON(r, "bench."+k, doc[k])
	}
	return nil
}

// flattenJSON walks one JSON value, recording numeric leaves under
// dotted paths and array elements under numeric indices.
func flattenJSON(r *Record, path string, v any) {
	switch v := v.(type) {
	case float64:
		r.Set(path, v)
	case bool:
		if v {
			r.Set(path, 1)
		} else {
			r.Set(path, 0)
		}
	case map[string]any:
		for _, k := range sortedKeys(v) {
			flattenJSON(r, path+"."+k, v[k])
		}
	case []any:
		for i, el := range v {
			flattenJSON(r, fmt.Sprintf("%s.%d", path, i), el)
		}
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
