// Package telemetry is the repository's observability substrate, with
// no dependency beyond the numeric one (mathx): atomic counters,
// gauges, bounded log-scale histograms (with p50/p95/p99 readouts) and
// streaming mean/CI95 series, all hanging off one process-wide
// registry that Capture() reads without stopping the world; the
// Stage, the one timing primitive: each stage call feeds its histogram
// and, under a traced context, a Chrome trace event, whose annotations
// carry the simulation facts the stage computed (a chip's VddNTV, a
// front cell's input, a score's quality). TraceContext is the one
// context that asks for more than the switch buys: under it stages
// record trace events and samplers feed their series, each distinct
// sample once (Monitored).
//
// Design constraints, in order:
//
//  1. Near-zero cost when off. Recording is gated on one atomic load of
//     the package-wide Enabled switch, the process's only observability
//     switch; a disabled Counter.Add, Histogram.Observe, Gauge.Set,
//     Series.Observe, Stage.Begin or Monitored performs no allocation
//     and no time.Now call. Hot layers (the parallel pool, the memo
//     caches, the chip factory) therefore instrument unconditionally
//     and let the switch decide.
//  2. Race-free under fire. Counters, gauges and histograms are fixed
//     sets of atomics; a series observation takes that series' own
//     lock, and a traced stage call takes one to append its event. The
//     registry lock is taken only on first registration of a name,
//     never on the record path — callers hold the returned pointer.
//  3. Bounded memory. A Histogram is 64 power-of-two buckets plus five
//     scalars no matter how many observations land in it; quantiles are
//     interpolated within the winning bucket and clamped to the
//     observed min/max. A Series is five scalars. The trace buffer
//     holds at most 524,288 events and counts the rest in the
//     trace.dropped gauge.
//
// Metric handles are nil-safe: calling Add/Set/Observe on a nil metric
// (or End on the zero Timing) is a no-op, so optional instrumentation
// needs no guards.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide switch. All recording paths check it
// first, so leaving it off costs one atomic load per call site.
var enabled atomic.Bool

// On reports whether telemetry is recording. Instrumentation that must
// pay a setup cost before recording (time.Now, key construction) should
// gate that setup on On(); plain counter bumps need no guard because
// every metric checks the switch itself.
func On() bool { return enabled.Load() }

// SetEnabled flips the process-wide recording switch and returns a
// function restoring the previous state, for scoped use in tests.
func SetEnabled(on bool) (restore func()) {
	prev := enabled.Swap(on)
	return func() { enabled.Store(prev) }
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when telemetry is enabled. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one when telemetry is enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (readable even while disabled).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a last-write-wins atomic level (pool width, cache sizes).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set records the gauge's current level when telemetry is enabled.
// Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Value returns the last recorded level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) reset() { g.v.Store(0) }

// histBuckets is the fixed bucket count: bucket b collects values whose
// bit length is b, i.e. the power-of-two range [2^(b-1), 2^b).
const histBuckets = 64

// Histogram accumulates int64 observations, nanoseconds, into
// power-of-two buckets. Memory is constant; recording is five atomic
// operations and no allocation.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until the first observation
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps a non-negative value to its power-of-two bucket.
func bucketOf(v int64) int {
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value when telemetry is enabled; negative values
// clamp to zero. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.observe(v)
}

// observe records unconditionally; used by Timing.End so a stage call
// begun while enabled still lands if the switch flips mid-flight.
func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// snapshot reads the histogram into plain integers. Concurrent
// observers may land between the field reads; the quantile math
// tolerates the skew by clamping to the bucket totals it actually read.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  h.name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.Min = min
	}
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return s
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	s.P50 = quantile(&counts, total, 0.50, s.Min, s.Max)
	s.P95 = quantile(&counts, total, 0.95, s.Min, s.Max)
	s.P99 = quantile(&counts, total, 0.99, s.Min, s.Max)
	return s
}

// quantile interpolates the q-quantile from power-of-two bucket counts,
// clamped to the observed [min, max] envelope.
func quantile(counts *[histBuckets]int64, total int64, q float64, min, max int64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		if counts[b] == 0 {
			continue
		}
		if seen+counts[b] >= rank {
			// Linear interpolation inside the bucket's value range.
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo = int64(1) << (b - 1)
				hi = lo<<1 - 1
			}
			frac := float64(rank-seen) / float64(counts[b])
			v := lo + int64(frac*float64(hi-lo))
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		seen += counts[b]
	}
	return max
}

// registry is the process-wide name -> metric table. It is locked only
// on registration; the record path never touches it.
var reg struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// GetCounter returns the process-wide counter registered under name,
// creating it on first use. Callers should hold the returned pointer
// (package-level var) rather than re-resolving the name on hot paths.
func GetCounter(name string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.counters == nil {
		reg.counters = make(map[string]*Counter)
	}
	c, ok := reg.counters[name]
	if !ok {
		c = &Counter{name: name}
		reg.counters[name] = c
	}
	return c
}

// GetGauge returns the process-wide gauge registered under name,
// creating it on first use.
func GetGauge(name string) *Gauge {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.gauges == nil {
		reg.gauges = make(map[string]*Gauge)
	}
	g, ok := reg.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		reg.gauges[name] = g
	}
	return g
}

// GetHistogram returns the process-wide histogram registered under
// name, creating it on first use.
func GetHistogram(name string) *Histogram {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.histograms == nil {
		reg.histograms = make(map[string]*Histogram)
	}
	h, ok := reg.histograms[name]
	if !ok {
		h = &Histogram{name: name}
		h.min.Store(math.MaxInt64)
		reg.histograms[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place and discards the
// recorded trace. Metric identities are preserved —
// pointers held by instrumented packages stay valid — so it is safe to
// call between runs or tests.
func Reset() {
	traceBuf.reset()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, c := range reg.counters {
		c.reset()
	}
	for _, g := range reg.gauges {
		g.reset()
	}
	for _, h := range reg.histograms {
		h.reset()
	}
	for _, sr := range reg.series {
		sr.reset()
	}
}

// sortedNames returns m's keys in lexical order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
