package history

import "strings"

// sense is a metric's bad direction: which way a move counts as a
// regression. Metrics with no registered sense are never gated — a
// number that is neither good nor bad going up (a count of requests,
// a seed) would otherwise page on every workload change.
type sense int

const (
	// upIsBad flags increases: latencies, allocations, error rates.
	upIsBad sense = iota
	// downIsBad flags decreases: throughput, hit rates.
	downIsBad
)

func (s sense) String() string {
	if s == downIsBad {
		return "down"
	}
	return "up"
}

// direction binds a metric-name pattern to its bad sense. Pattern is
// a '*' glob where the wildcard matches any run of characters,
// including dots — "hist.*.p99" covers every histogram's p99.
type direction struct {
	pattern string
	worse   sense
}

// directions is the repository's gated-metric table, first match
// wins. Each family maps to a metric the live writers record
// (harvest.go documents the namespace): `accordion -history` and
// `accordionhist append -bench` with a benchmark result.
// TestDirectionsCoverHarvest pins that every pattern still matches a
// harvested metric, and TestDirectionsFollowBenchmark that every
// metric BENCHMARK.json declares is gated in the sense its `better`
// gives, so the table cannot silently go stale.
var directions = []direction{
	// Telemetry histograms: latency-shaped, up is bad.
	{"hist.*.mean", upIsBad},
	{"hist.*.p50", upIsBad},
	{"hist.*.p95", upIsBad},
	{"hist.*.p99", upIsBad},
	// Memo caches: a falling hit rate means recomputation.
	{"cache.*.hit_rate", downIsBad},
	// Monte-Carlo noise: a wider CI at the same draw count means
	// the estimator got worse.
	{"converge.*.ci95", upIsBad},
	// Per-runner wall time of an accordion run.
	{"runner.*.wall_ms", upIsBad},
	// Benchmark results (benchmark/run.sh --out): the one rate is
	// higher-is-better; every other end-to-end and per-layer metric,
	// and the count of failed operations, is lower-is-better.
	{"bench.*.metrics.items_per_s.value", downIsBad},
	{"bench.*.metrics.*.value", upIsBad},
	{"bench.*.failed", upIsBad},
}

// senseOf returns the first matching direction for the metric name.
func senseOf(name string) (sense, bool) {
	for _, d := range directions {
		if globMatch(d.pattern, name) {
			return d.worse, true
		}
	}
	return 0, false
}

// globMatch reports whether name matches pattern, where '*' matches
// any run of characters (dots included). Linear greedy match with
// backtracking over literal segments.
func globMatch(pattern, name string) bool {
	segs := strings.Split(pattern, "*")
	if len(segs) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, segs[0]) {
		return false
	}
	rest := name[len(segs[0]):]
	for _, seg := range segs[1 : len(segs)-1] {
		i := strings.Index(rest, seg)
		if i < 0 {
			return false
		}
		rest = rest[i+len(seg):]
	}
	return strings.HasSuffix(rest, segs[len(segs)-1])
}
