package history

import "strings"

// Sense is a metric's bad direction: which way a move counts as a
// regression. Metrics with no registered sense are never gated — a
// number that is neither good nor bad going up (a count of requests,
// a seed) would otherwise page on every workload change.
type Sense int

const (
	// UpIsBad flags increases: latencies, allocations, error rates.
	UpIsBad Sense = iota
	// DownIsBad flags decreases: throughput, hit rates, speedups.
	DownIsBad
)

func (s Sense) String() string {
	if s == DownIsBad {
		return "down"
	}
	return "up"
}

// Direction binds a metric-name pattern to its bad sense. Pattern is
// a '*' glob where the wildcard matches any run of characters,
// including dots — "hist.*.p99" covers every histogram's p99.
type Direction struct {
	Pattern string
	Worse   Sense
}

// DefaultDirections is the repository's gated-metric table. Each
// family maps to a surface the harvesters produce (harvest.go
// documents the namespace); TestDirectionsCoverHarvest pins that
// every pattern still matches at least one harvested metric so the
// table cannot silently go stale.
func DefaultDirections() []Direction {
	return []Direction{
		// Telemetry histograms: latency-shaped, up is bad.
		{"hist.*.mean", UpIsBad},
		{"hist.*.p50", UpIsBad},
		{"hist.*.p95", UpIsBad},
		{"hist.*.p99", UpIsBad},
		// Memo caches: a falling hit rate means recomputation.
		{"cache.*.hit_rate", DownIsBad},
		// Monte-Carlo noise: a wider CI at the same draw count means
		// the estimator got worse.
		{"converge.*.ci95", UpIsBad},
		// Per-runner and whole-run wall time from the manifest.
		{"runner.*.wall_ms", UpIsBad},
		// go test -bench leaves harvested from BENCH_*.json.
		{"bench.*ns_op", UpIsBad},
		{"bench.*allocs_op", UpIsBad},
		{"bench.*bytes_op", UpIsBad},
		{"bench.*.speedup", DownIsBad},
		// Service request-sweep results (HISTORY's bench_service record).
		{"bench.sweep.*_ms", UpIsBad},
		{"bench.sweep.throughput_rps", DownIsBad},
		{"bench.*hit_rate", DownIsBad},
	}
}

// senseOf returns the first matching direction for the metric name.
func senseOf(name string, dirs []Direction) (Sense, bool) {
	for _, d := range dirs {
		if globMatch(d.Pattern, name) {
			return d.Worse, true
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
