package telemetry

import (
	"context"
	"math"
	"sync"

	"repro/internal/mathx"
)

// Series is the fourth metric kind: a streaming mean/variance
// accumulator (mathx.Welford) over a float-valued per-sample metric.
// Where a histogram answers "how is this distributed", a series
// answers "how well do we know its mean" — its snapshot carries the
// count, mean, standard deviation and the 95% confidence-interval
// half-width of the mean. The chip factory keeps four, one per
// summary metric of a drawn chip, so a run can tell whether its
// Monte-Carlo population was large enough. Observing takes the
// series' own lock, never the registry's, and allocates nothing.
type Series struct {
	name string
	unit string
	mu   sync.Mutex
	w    mathx.Welford
}

// Name returns the series' registered name.
func (s *Series) Name() string { return s.name }

// Observe folds one value into the series when telemetry is enabled.
// Nil-safe.
func (s *Series) Observe(v float64) {
	if s == nil || !enabled.Load() {
		return
	}
	s.mu.Lock()
	s.w.Add(v)
	s.mu.Unlock()
}

// Count returns the number of observations so far.
func (s *Series) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.N()
}

func (s *Series) reset() {
	s.mu.Lock()
	s.w = mathx.Welford{}
	s.mu.Unlock()
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

// GetSeries returns the process-wide series registered under name,
// creating it with the unit on first use. The unit is fixed at first
// registration.
func GetSeries(name, unit string) *Series {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.series == nil {
		reg.series = make(map[string]*Series)
	}
	s, ok := reg.series[name]
	if !ok {
		s = &Series{name: name, unit: unit}
		reg.series[name] = s
	}
	return s
}

// monitorKey carries a MonitorContext's set of observed sample keys,
// a *sync.Map.
type monitorKey struct{}

// MonitorContext returns a context under which samplers feed their
// series: the chip factory observes each distinct chip drawn under it
// once. Like TraceContext it asks for work the switch alone does not
// buy — deriving a chip's summary costs more than drawing it — so only
// a run that wants convergence statistics opens one.
func MonitorContext(ctx context.Context) context.Context {
	return context.WithValue(ctx, monitorKey{}, new(sync.Map))
}

// Monitored reports whether the sample identified by key is one to
// observe: telemetry is on, ctx descends from a MonitorContext, and no
// earlier call under that MonitorContext claimed key. A run whose
// experiments draw the same sample twice therefore counts it once.
// While telemetry is off it is one atomic load.
func Monitored(ctx context.Context, key int64) bool {
	if !enabled.Load() {
		return false
	}
	seen, _ := ctx.Value(monitorKey{}).(*sync.Map)
	if seen == nil {
		return false
	}
	_, dup := seen.LoadOrStore(key, struct{}{})
	return !dup
}
