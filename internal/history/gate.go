package history

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/mathx"
)

// The gate's policy. A metric regresses when it leaves its baseline's
// 95% band (z95·std) by more than margin·|mean| in its bad direction:
// the band absorbs measured noise, the margin absorbs noise the
// baseline window was too calm to exhibit.
const (
	// window is how many prior comparable records form the baseline.
	window = 20
	// minBaseline is the fewest baseline observations a metric needs
	// before it is gated at all: below that the band is statistically
	// meaningless and the gate stays silent rather than guessing.
	minBaseline = 3
	// margin is the relative slack added on top of the baseline's band.
	margin = 0.10
)

// Baseline is the summarized baseline window behind one finding.
type Baseline struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// Band is the 95% single-observation half-width (z95·std) the
	// gate grants before the margin applies.
	Band float64 `json:"band"`
}

// Finding is one metric's verdict: a regression (moved past the band
// in the bad direction) or an improvement (moved past the band in the
// good direction, reported for information, never fatal).
type Finding struct {
	Metric     string   `json:"metric"`
	Worse      string   `json:"worse"` // "up" or "down"
	Value      float64  `json:"value"`
	Baseline   Baseline `json:"baseline"`
	Regression bool     `json:"regression"`
	// RelDelta is (value-mean)/|mean| (signed); RelExcess is how far
	// past the allowed envelope the value landed, in the same units.
	RelDelta  float64 `json:"rel_delta"`
	RelExcess float64 `json:"rel_excess"`
}

// GateReport is one gate run's outcome over a record set.
type GateReport struct {
	// Key is the newest record's comparability identity; only records
	// sharing it enter the baseline.
	Key         string    `json:"key"`
	VCSRevision string    `json:"vcs_revision,omitempty"`
	BaselineN   int       `json:"baseline_n"`
	Compared    int       `json:"compared"` // direction-gated metrics with enough baseline
	Skipped     int       `json:"skipped"`  // direction-gated metrics with too little baseline
	Findings    []Finding `json:"findings,omitempty"`
	// Note explains a silent pass (no baseline yet, too few records).
	Note string `json:"note,omitempty"`
}

// Regressions counts the fatal findings.
func (g *GateReport) Regressions() int {
	n := 0
	for i := range g.Findings {
		if g.Findings[i].Regression {
			n++
		}
	}
	return n
}

// Check runs the noise-aware regression gate: the newest record in
// recs against a baseline window of earlier records sharing its
// CompatKey. Metrics are gated only when the direction table registers
// their bad sense and at least minBaseline baseline records carry them.
//
// The test is Welford-on-the-baseline: a value regresses when it
// leaves the baseline's 95% single-observation band (z95·std) by more
// than margin·|mean| in the bad direction. Three consequences the
// tests pin: a 2× latency jump over a stable baseline is flagged; a
// value inside the band — any identical re-run, and any jitter the
// baseline itself exhibited — is not; and a constant baseline
// (band 0) still tolerates the margin, so byte-identical reruns of a
// deterministic metric sit exactly on the mean and pass.
func Check(recs []Record) (*GateReport, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("history: no records to check")
	}
	newest := recs[len(recs)-1]
	rep := &GateReport{Key: newest.CompatKey(), VCSRevision: newest.VCSRevision}
	baseline := Tail(Matching(recs[:len(recs)-1], rep.Key), window)
	rep.BaselineN = len(baseline)
	if len(baseline) < minBaseline {
		rep.Note = fmt.Sprintf("only %d comparable baseline record(s) for %s (need %d); nothing gated",
			len(baseline), rep.Key, minBaseline)
		return rep, nil
	}
	for _, name := range newest.MetricNames() {
		worse, gated := senseOf(name)
		if !gated {
			continue
		}
		var w mathx.Welford
		for i := range baseline {
			if v, ok := baseline[i].Metrics[name]; ok {
				w.Add(v)
			}
		}
		if int(w.N()) < minBaseline {
			rep.Skipped++
			continue
		}
		rep.Compared++
		if f, ok := judge(name, worse, newest.Metrics[name], &w); ok {
			rep.Findings = append(rep.Findings, f)
		}
	}
	sort.Slice(rep.Findings, func(a, b int) bool {
		fa, fb := &rep.Findings[a], &rep.Findings[b]
		if fa.Regression != fb.Regression {
			return fa.Regression
		}
		if fa.RelExcess > fb.RelExcess {
			return true
		}
		if fb.RelExcess > fa.RelExcess {
			return false
		}
		return fa.Metric < fb.Metric
	})
	return rep, nil
}

// judge applies the band-plus-margin test to one metric.
func judge(name string, worse sense, value float64, w *mathx.Welford) (Finding, bool) {
	mean, band := w.Mean(), w.Band95()
	slack := band + margin*math.Abs(mean)
	delta := value - mean
	bad := delta > slack // upIsBad: too far above the envelope
	good := delta < -slack
	if worse == downIsBad {
		bad, good = good, bad
	}
	if !bad && !good {
		return Finding{}, false
	}
	scale := math.Abs(mean)
	if scale == 0 {
		scale = 1
	}
	f := Finding{
		Metric:     name,
		Worse:      worse.String(),
		Value:      value,
		Baseline:   Baseline{N: w.N(), Mean: mean, Std: w.Std(), Band: band},
		Regression: bad,
		RelDelta:   delta / scale,
		RelExcess:  (math.Abs(delta) - slack) / scale,
	}
	return f, true
}

// WriteText renders the gate report for terminals and CI logs.
func (g *GateReport) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("== history gate: %s", g.Key)
	if g.VCSRevision != "" {
		p(" @ %.12s", g.VCSRevision)
	}
	p("\n")
	if g.Note != "" {
		p("PASS (no baseline): %s\n", g.Note)
		return err
	}
	p("baseline %d record(s); %d metric(s) compared, %d skipped (short baseline)\n",
		g.BaselineN, g.Compared, g.Skipped)
	for i := range g.Findings {
		f := &g.Findings[i]
		verdict := "improved "
		if f.Regression {
			verdict = "REGRESSED"
		}
		p("%s  %-44s %12.5g  baseline %.5g ±%.3g (n=%d, worse=%s)  Δ%+.1f%%\n",
			verdict, f.Metric, f.Value, f.Baseline.Mean, f.Baseline.Band,
			f.Baseline.N, f.Worse, 100*f.RelDelta)
	}
	if n := g.Regressions(); n > 0 {
		p("FAIL: %d regression(s) beyond the noise band\n", n)
	} else {
		p("PASS: no metric left its baseline noise band in the bad direction\n")
	}
	return err
}
