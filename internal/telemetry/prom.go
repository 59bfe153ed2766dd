package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a registry name into a legal Prometheus metric
// name: dots and any other illegal characters become underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), the document the /metricsz endpoint serves.
// Counters and gauges map directly; each histogram becomes a summary
// (its interpolated p50/p95/p99 as quantiles plus _sum and _count),
// with the histogram's unit attached as a label; each series becomes a
// gauge family with one sample per statistic (count, mean, std, ci95),
// told apart by a stat label beside the unit. A telemetry_enabled
// gauge reports the recording switch so scrapes of a disabled process
// are self-describing.
func (s Snapshot) WriteProm(w io.Writer) error {
	var b strings.Builder
	enabled := 0
	if s.Enabled {
		enabled = 1
	}
	b.WriteString("# HELP telemetry_enabled whether the process-wide telemetry switch is on\n")
	b.WriteString("# TYPE telemetry_enabled gauge\n")
	fmt.Fprintf(&b, "telemetry_enabled %d\n", enabled)
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		unit := h.Unit
		if unit == "" {
			unit = "ns"
		}
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		fmt.Fprintf(&b, "%s{unit=%q,quantile=\"0.5\"} %d\n", n, unit, h.P50)
		fmt.Fprintf(&b, "%s{unit=%q,quantile=\"0.95\"} %d\n", n, unit, h.P95)
		fmt.Fprintf(&b, "%s{unit=%q,quantile=\"0.99\"} %d\n", n, unit, h.P99)
		fmt.Fprintf(&b, "%s_sum{unit=%q} %d\n", n, unit, h.Sum)
		fmt.Fprintf(&b, "%s_count{unit=%q} %d\n", n, unit, h.Count)
	}
	for _, sr := range s.Series {
		n := promName(sr.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", n)
		fmt.Fprintf(&b, "%s{unit=%q,stat=\"count\"} %d\n", n, sr.Unit, sr.Count)
		fmt.Fprintf(&b, "%s{unit=%q,stat=\"mean\"} %g\n", n, sr.Unit, sr.Mean)
		fmt.Fprintf(&b, "%s{unit=%q,stat=\"std\"} %g\n", n, sr.Unit, sr.Std)
		fmt.Fprintf(&b, "%s{unit=%q,stat=\"ci95\"} %g\n", n, sr.Unit, sr.CI95)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MetricsHandler returns the /metricsz endpoint: the same Capture()
// the /telemetryz endpoint serves, rendered for a Prometheus scraper.
// It serves whether or not telemetry is enabled; a disabled process
// reports telemetry_enabled 0 and whatever was recorded before the
// switch flipped.
func MetricsHandler() http.Handler {
	return noCache(promContentType, func(w io.Writer) error { return Capture().WriteProm(w) })
}
