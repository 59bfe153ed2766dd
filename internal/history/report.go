package history

import (
	"fmt"
	"io"
	"strings"
)

// ReportOptions selects what the trend report shows.
type ReportOptions struct {
	// LastK is how many trailing comparable records to trend
	// (default: the gate's window of 20).
	LastK int
	// Metrics are glob patterns choosing the trended metrics; empty
	// means every metric with a registered direction (the gated set).
	Metrics []string
}

// trend is one metric's series over the trended records.
type trend struct {
	name   string
	worse  string // "", "up", "down"
	values []float64
	ok     []bool // value present in record i
}

// reportData is the trended selection WriteTextReport renders.
type reportData struct {
	key     string // CompatKey trended
	total   int    // records in the store
	trended int    // records matching key and inside LastK
	skipped int    // records excluded by key mismatch
	trends  []trend
	newest  *Record
}

// buildReport selects records comparable to the newest one and
// assembles per-metric series.
func buildReport(recs []Record, opt ReportOptions) (*reportData, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("history: no records to report")
	}
	newest := recs[len(recs)-1]
	key := newest.CompatKey()
	matching := Matching(recs, key)
	lastK := opt.LastK
	if lastK <= 0 {
		lastK = window
	}
	trended := Tail(matching, lastK)
	d := &reportData{
		key:     key,
		total:   len(recs),
		trended: len(trended),
		skipped: len(recs) - len(matching),
		newest:  &newest,
	}
	for _, name := range newest.MetricNames() {
		worse := ""
		if s, gated := senseOf(name); gated {
			worse = s.String()
		}
		if len(opt.Metrics) > 0 {
			hit := false
			for _, pat := range opt.Metrics {
				if globMatch(pat, name) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		} else if worse == "" {
			continue
		}
		tr := trend{name: name, worse: worse}
		present := 0
		for i := range trended {
			v, ok := trended[i].Metrics[name]
			tr.values = append(tr.values, v)
			tr.ok = append(tr.ok, ok)
			if ok {
				present++
			}
		}
		if present == 0 {
			continue
		}
		d.trends = append(d.trends, tr)
	}
	return d, nil
}

// sparkRunes are the eight-level unicode sparkline alphabet; a '·'
// marks a record the metric is absent from.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the series as one rune per record, min-max scaled.
func sparkline(values []float64, ok []bool) string {
	lo, hi, any := 0.0, 0.0, false
	for i, v := range values {
		if !ok[i] {
			continue
		}
		if !any || v < lo {
			lo = v
		}
		if !any || v > hi {
			hi = v
		}
		any = true
	}
	var b strings.Builder
	for i, v := range values {
		if !ok[i] {
			b.WriteRune('·')
			continue
		}
		level := len(sparkRunes) / 2 // flat series sit mid-scale
		if hi > lo {
			level = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// seriesStats returns min, max, and the latest present value.
func seriesStats(t *trend) (lo, hi, latest float64) {
	any := false
	for i, v := range t.values {
		if !t.ok[i] {
			continue
		}
		if !any || v < lo {
			lo = v
		}
		if !any || v > hi {
			hi = v
		}
		latest = v
		any = true
	}
	return lo, hi, latest
}

// WriteTextReport renders per-metric trends over the last K
// comparable records. Output is deterministic for a fixed record set
// (golden-tested).
func WriteTextReport(w io.Writer, recs []Record, opt ReportOptions) error {
	d, err := buildReport(recs, opt)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== run history: %s\n", d.key)
	fmt.Fprintf(&b, "store: %d record(s); trending last %d", d.total, d.trended)
	if d.skipped > 0 {
		fmt.Fprintf(&b, " (%d other-identity record(s) skipped)", d.skipped)
	}
	b.WriteString("\n")
	if d.newest.VCSRevision != "" {
		dirty := ""
		if d.newest.VCSDirty {
			dirty = " (dirty)"
		}
		fmt.Fprintf(&b, "newest: %.12s%s\n", d.newest.VCSRevision, dirty)
	}
	if len(d.trends) == 0 {
		b.WriteString("no trended metrics\n")
	} else {
		width := len("metric")
		for i := range d.trends {
			if len(d.trends[i].name) > width {
				width = len(d.trends[i].name)
			}
		}
		fmt.Fprintf(&b, "%-*s  %5s  %12s  %12s  %12s  trend\n",
			width, "metric", "worse", "min", "max", "latest")
		for i := range d.trends {
			t := &d.trends[i]
			lo, hi, latest := seriesStats(t)
			fmt.Fprintf(&b, "%-*s  %5s  %12.5g  %12.5g  %12.5g  %s\n",
				width, t.name, t.worse, lo, hi, latest, sparkline(t.values, t.ok))
		}
	}
	_, err = io.WriteString(w, b.String())
	return err
}
