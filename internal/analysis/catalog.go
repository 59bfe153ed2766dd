package analysis

import "strings"

// Catalog is the checked-in vocabulary of telemetry metric names. The
// telemetrynames analyzer refuses any
// GetCounter/GetGauge/GetHistogram/GetSeries/NewStage call whose name
// is not (a) a string literal matching ^[a-z0-9_.]+$ registered here,
// or (b) a concatenation whose literal prefix is registered here. That
// keeps the /metricsz namespace and the trace's stage names (what CI
// smoke gates and jq pipelines key on) from drifting or colliding one
// emit site at a time: adding a name means touching this file, which
// means the diff shows the vocabulary grew.
type Catalog struct {
	// Metrics are exact telemetry counter/gauge/histogram/series/stage
	// names.
	Metrics map[string]bool
	// MetricPrefixes cover families with a dynamic tail, e.g. the
	// per-cache counters "cache.<Name>.hits".
	MetricPrefixes []string
}

// DefaultCatalog returns the repository's registered vocabulary.
func DefaultCatalog() *Catalog {
	return &Catalog{
		Metrics: set(
			// parallel pool
			"parallel.tasks.submitted",
			"parallel.tasks.completed",
			"parallel.panics_recovered",
			"parallel.pool.width",
			"parallel.queue.wait_ns",
			"parallel.worker.busy_ns",
			// chip factory
			"chip.factory.chips_drawn",
			// convergence series, one per chip summary metric
			"chip.fmax_ghz",
			"chip.vddmin_v",
			"chip.power_w",
			"chip.err_rate",
			// fault notes, one counter per kind
			"fault.drops",
			"fault.injected",
			// stages, each named once for its histogram and its trace
			// events (plus experiments.run.<id>, rms.<kernel>.run and
			// quality.<kernel>.score below)
			"run",
			"parallel.worker",
			"chip.draw",
			"variation.sample_ns", // dense + circulant field sampling
			"core.front",
			"core.front.reference",
			"core.front.cell",
			"core.solver.front",
			"core.solver.solve",
			"experiments.attribution",
			// the trace buffer's self-accounting
			"trace.dropped",
			// accordiond job queue
			"service.requests",
			"service.rejected",
			"service.coalesced",
			"service.inflight",
			"service.latency_ns",
			"service.run_ns",
		),
		MetricPrefixes: []string{
			"cache.",           // cache.<Name>.{hits,misses,evictions}
			"experiments.run.", // experiments.run.<experiment id>
			"rms.",             // rms.<kernel>.run stages
			"quality.",         // quality.<kernel>.score stages
		},
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// lookupExact reports whether name is registered, either exactly or
// under a prefix family.
func lookupExact(name string, exact map[string]bool, prefixes []string) bool {
	if exact[name] {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// lookupPrefix reports whether lit is a registered prefix family (or
// extends one: "experiments.run." is fine even if only "experiments."
// were registered the other way around).
func lookupPrefix(lit string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(lit, p) {
			return true
		}
	}
	return false
}
