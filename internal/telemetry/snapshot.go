package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// CounterSnapshot is one counter's point-in-time reading.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's point-in-time reading.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram's point-in-time reading: the
// moments plus interpolated quantiles, all in nanoseconds.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// SeriesSnapshot is one series' point-in-time reading. CI95 is the
// 95% confidence-interval half-width of the mean (normal
// approximation); RelCI95 is CI95/|mean|. Both, and Std, are zero
// until two observations exist.
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

// Snapshot is a consistent-enough point-in-time view of every
// registered metric, sorted by name. Each individual metric is read
// atomically; the set as a whole is not fenced against concurrent
// recording, which is the usual monitoring trade.
type Snapshot struct {
	Enabled    bool                `json:"enabled"`
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
	Series     []SeriesSnapshot    `json:"series"`
}

// Capture reads every registered metric. It is cheap enough to call
// mid-run and safe to call concurrently with recording.
func Capture() Snapshot {
	reg.mu.Lock()
	counters := make([]*Counter, 0, len(reg.counters))
	for _, n := range sortedNames(reg.counters) {
		counters = append(counters, reg.counters[n])
	}
	gauges := make([]*Gauge, 0, len(reg.gauges))
	for _, n := range sortedNames(reg.gauges) {
		gauges = append(gauges, reg.gauges[n])
	}
	hists := make([]*Histogram, 0, len(reg.histograms))
	for _, n := range sortedNames(reg.histograms) {
		hists = append(hists, reg.histograms[n])
	}
	series := make([]*Series, 0, len(reg.series))
	for _, n := range sortedNames(reg.series) {
		series = append(series, reg.series[n])
	}
	reg.mu.Unlock()

	s := Snapshot{
		Enabled:    enabled.Load(),
		Counters:   make([]CounterSnapshot, 0, len(counters)),
		Gauges:     make([]GaugeSnapshot, 0, len(gauges)),
		Histograms: make([]HistogramSnapshot, 0, len(hists)),
		Series:     make([]SeriesSnapshot, 0, len(series)),
	}
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.snapshot())
	}
	for _, sr := range series {
		s.Series = append(s.Series, sr.snapshot())
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON, the same document
// the /telemetryz endpoint serves and CI archives.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// fmtNs renders a histogram value, in nanoseconds, as a rounded
// duration a human can scan.
func fmtNs(v int64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

// WriteText renders the snapshot as an aligned human-readable report:
// counters, gauges, histograms with their quantiles, then series with
// their mean ± CI95 half-width.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	state := "disabled"
	if s.Enabled {
		state = "enabled"
	}
	fmt.Fprintf(&b, "== telemetry (%s)\n", state)
	if len(s.Counters) > 0 {
		width := 0
		for _, c := range s.Counters {
			if len(c.Name) > width {
				width = len(c.Name)
			}
		}
		b.WriteString("-- counters\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "%-*s  %d\n", width, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		width := 0
		for _, g := range s.Gauges {
			if len(g.Name) > width {
				width = len(g.Name)
			}
		}
		b.WriteString("-- gauges\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "%-*s  %d\n", width, g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		width := 0
		for _, h := range s.Histograms {
			if len(h.Name) > width {
				width = len(h.Name)
			}
		}
		b.WriteString("-- histograms (count mean p50 p95 p99 max)\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "%-*s  n=%d  mean=%s  p50=%s  p95=%s  p99=%s  max=%s\n",
				width, h.Name, h.Count, fmtNs(int64(h.Mean)),
				fmtNs(h.P50), fmtNs(h.P95), fmtNs(h.P99), fmtNs(h.Max))
		}
	}
	if len(s.Series) > 0 {
		width := 0
		for _, sr := range s.Series {
			if len(sr.Name) > width {
				width = len(sr.Name)
			}
		}
		b.WriteString("-- series (count mean±ci95 std min max)\n")
		for _, sr := range s.Series {
			fmt.Fprintf(&b, "%-*s  n=%d  mean=%.6g±%.3g %s  std=%.3g  min=%.6g  max=%.6g\n",
				width, sr.Name, sr.Count, sr.Mean, sr.CI95, sr.Unit, sr.Std, sr.Min, sr.Max)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the /telemetryz endpoint: a point-in-time Capture()
// rendered as JSON, so scripts and CI scrape the same numbers the
// -telemetry flag prints. Caching is disabled so a live scrape never
// sees a stale snapshot.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-cache")
		if err := Capture().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// CacheCounts is one memo cache's traffic, read from its
// cache.<name>.{hits,misses} counter pair.
type CacheCounts struct {
	Name         string
	Hits, Misses int64
}

// Caches pairs the memo caches' cache.<name>.{hits,misses} counters,
// from a Capture or a Scope, into one entry per cache, sorted by name.
func Caches(counters []CounterSnapshot) []CacheCounts {
	byName := map[string]CacheCounts{}
	for _, c := range counters {
		rest, ok := strings.CutPrefix(c.Name, "cache.")
		if !ok {
			continue
		}
		if name, ok := strings.CutSuffix(rest, ".hits"); ok {
			cc := byName[name]
			cc.Hits = c.Value
			byName[name] = cc
		} else if name, ok := strings.CutSuffix(rest, ".misses"); ok {
			cc := byName[name]
			cc.Misses = c.Value
			byName[name] = cc
		}
	}
	out := make([]CacheCounts, 0, len(byName))
	for _, name := range sortedNames(byName) {
		cc := byName[name]
		cc.Name = name
		out = append(out, cc)
	}
	return out
}
