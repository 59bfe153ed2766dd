// Package converge is the Monte-Carlo convergence monitor: streaming
// mean/variance (Welford's algorithm) and 95% confidence-interval
// half-widths for the per-chip metrics the paper's population studies
// report (fmax, VddMIN, power, error rate), updated live as the
// population fans out across the worker pool.
//
// The paper samples 100 variation-afflicted chips per experiment and
// reports population means; this package answers the question the
// figure captions beg — was 100 enough? A run's Capture() (dumped as
// convergence.json by cmd/accordion) reports, per metric, the count,
// mean, standard deviation, and the CI95 half-width both absolute and
// relative to the mean, so "the mean VddNTV is 0.63 V" becomes "0.63 V
// ± 0.4% at 95% confidence after 100 draws".
//
// Monitoring is something a run asks for, not a process switch:
// deriving a chip's metrics costs more than drawing it, so the chip
// factory observes a chip only when its context descends from a
// MonitorContext (accordion's -convergence, -progress and -history
// open one). Everything else — accordiond, library callers — never
// pays for it. Observe itself always records; series keep per-series
// locks and identities that survive Reset. Each observation also
// updates telemetry gauges (converge.<series>.{count,mean_micro,
// ci95_micro}, micro-unit scaled since gauges are integers) so the
// /metricsz and /telemetryz endpoints expose convergence live mid-run.
package converge

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

type monitorKey struct{}

// MonitorContext returns a context under which the chip factory feeds
// every drawn chip's metrics into the convergence estimators.
func MonitorContext(ctx context.Context) context.Context {
	return context.WithValue(ctx, monitorKey{}, true)
}

// Monitored reports whether ctx descends from a MonitorContext: one
// context lookup and no allocation.
func Monitored(ctx context.Context) bool {
	on, _ := ctx.Value(monitorKey{}).(bool)
	return on
}

// z95 is the two-sided 95% normal quantile; the CI half-width is
// z95*s/sqrt(n). The normal approximation is the right tool here —
// population sizes of interest are ≥ 20 draws.
const z95 = 1.959963984540054

// Series is one monitored metric's streaming accumulator.
type Series struct {
	name string
	unit string

	mu    sync.Mutex
	w     Welford
	gauge gauges
}

type gauges struct {
	count, meanMicro, ciMicro interface{ Set(int64) }
}

// Name returns the series' registered name.
func (s *Series) Name() string { return s.name }

// Unit returns the series' unit label.
func (s *Series) Unit() string { return s.unit }

// observe folds one value into the accumulator (Welford's update).
func (s *Series) observe(v float64) (n int64, mean, ci float64) {
	s.mu.Lock()
	s.w.Add(v)
	n, mean, ci = s.w.N(), s.w.Mean(), s.w.CI95Mean()
	s.mu.Unlock()
	return n, mean, ci
}

// Count returns the number of observations so far.
func (s *Series) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.N()
}

// snapshot reads the series into plain numbers.
func (s *Series) snapshot() SeriesSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SeriesSnapshot{
		Name:  s.name,
		Unit:  s.unit,
		Count: s.w.N(),
		Mean:  s.w.Mean(),
		Min:   s.w.Min(),
		Max:   s.w.Max(),
	}
	if s.w.N() >= 2 {
		snap.Std = s.w.Std()
		snap.CI95 = s.w.CI95Mean()
		if snap.Mean != 0 {
			snap.RelCI95 = math.Abs(snap.CI95 / snap.Mean)
		}
	}
	return snap
}

func (s *Series) reset() {
	s.mu.Lock()
	s.w = Welford{}
	s.mu.Unlock()
}

// registry is the process-wide name → series table, locked only on
// first registration of a name (the record path holds the per-series
// lock, never this one).
var reg struct {
	mu sync.Mutex
	m  map[string]*Series
}

// gaugeSetter indirects telemetry gauge updates so this package's only
// coupling to internal/telemetry is the three Set calls; wired in
// gauges.go to keep the layering explicit.
var gaugeSetter = func(series, kind string) interface{ Set(int64) } { return nil }

// nopGauge satisfies the gauge surface when no setter is wired.
type nopGauge struct{}

func (nopGauge) Set(int64) {}

// Get returns the process-wide series registered under name, creating
// it with the unit on first use. The unit is fixed at first
// registration.
func Get(name, unit string) *Series {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.m == nil {
		reg.m = make(map[string]*Series)
	}
	s, ok := reg.m[name]
	if !ok {
		s = &Series{name: name, unit: unit}
		s.gauge.count = orNop(gaugeSetter(name, "count"))
		s.gauge.meanMicro = orNop(gaugeSetter(name, "mean_micro"))
		s.gauge.ciMicro = orNop(gaugeSetter(name, "ci95_micro"))
		reg.m[name] = s
	}
	return s
}

func orNop(g interface{ Set(int64) }) interface{ Set(int64) } {
	if g == nil {
		return nopGauge{}
	}
	return g
}

// Observe records one value for the named series and mirrors the
// running count/mean/CI into telemetry gauges.
func Observe(name, unit string, v float64) {
	s := Get(name, unit)
	n, mean, ci := s.observe(v)
	s.gauge.count.Set(n)
	s.gauge.meanMicro.Set(int64(mean * 1e6))
	if !math.IsInf(ci, 1) {
		s.gauge.ciMicro.Set(int64(ci * 1e6))
	}
}

// Reset zeroes every registered series in place, preserving
// identities, for use between runs or tests.
func Reset() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, s := range reg.m {
		s.reset()
	}
}

// SeriesSnapshot is one series' point-in-time reading. CI95 is the
// 95% confidence-interval half-width of the mean (normal
// approximation); RelCI95 is CI95/|mean|. Both are zero until two
// observations exist.
type SeriesSnapshot struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Count   int64   `json:"count"`
	Mean    float64 `json:"mean"`
	Std     float64 `json:"std"`
	CI95    float64 `json:"ci95_half_width"`
	RelCI95 float64 `json:"rel_ci95"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// Snapshot is a point-in-time view of every monitored series, sorted
// by name.
type Snapshot struct {
	Series []SeriesSnapshot `json:"series"`
}

// Capture reads every registered series; cheap and safe mid-run.
func Capture() Snapshot {
	reg.mu.Lock()
	all := make([]*Series, 0, len(reg.m))
	for _, s := range reg.m {
		all = append(all, s)
	}
	reg.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].name < all[b].name })
	snap := Snapshot{Series: make([]SeriesSnapshot, 0, len(all))}
	for _, s := range all {
		snap.Series = append(snap.Series, s.snapshot())
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON — the convergence.json
// document cmd/accordion dumps per run.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ProgressLine formats the one-line mid-run progress report the
// -progress flag prints: chips done (with ETA against target when one
// is known) and each series' mean ± CI95 half-width. Done is the
// maximum series count, which tracks the chip draw counter since every
// chip observes every metric once.
func ProgressLine(target int, elapsed time.Duration) string {
	snap := Capture()
	var done int64
	for _, s := range snap.Series {
		if s.Count > done {
			done = s.Count
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chips=%d", done)
	if target > 0 {
		fmt.Fprintf(&b, "/%d", target)
	}
	fmt.Fprintf(&b, " elapsed=%s", elapsed.Round(100*time.Millisecond))
	if eta, ok := etaFor(done, target, elapsed); ok {
		fmt.Fprintf(&b, " eta=%s", eta.Round(100*time.Millisecond))
	}
	for _, s := range snap.Series {
		if s.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, " | %s %.4g±%.2g %s", s.Name, s.Mean, s.CI95, s.Unit)
	}
	return b.String()
}

// etaFor estimates the remaining wall time from linear extrapolation
// of done/target over elapsed. The second return is false whenever no
// meaningful estimate exists: no target, nothing done yet, already at
// or past the target, an elapsed at or below the timer's resolution
// (a sub-tick wall time would extrapolate to a garbage ETA of zero),
// or an extrapolation too large for a time.Duration — so the progress
// line never prints a NaN, an Inf, or a wrapped-around ETA.
func etaFor(done int64, target int, elapsed time.Duration) (time.Duration, bool) {
	if target <= 0 || done <= 0 || done >= int64(target) || elapsed <= 0 {
		return 0, false
	}
	eta := float64(elapsed) / float64(done) * float64(int64(target)-done)
	if math.IsNaN(eta) || math.IsInf(eta, 0) || eta >= float64(math.MaxInt64) {
		return 0, false
	}
	return time.Duration(eta), true
}
