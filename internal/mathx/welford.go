package mathx

import "math"

// z95 is the two-sided 95% normal quantile; the CI half-width is
// z95*s/sqrt(n). The normal approximation is the right tool here —
// population sizes of interest are ≥ 20 draws.
const z95 = 1.959963984540054

// Welford is the streaming mean/variance accumulator (Welford's
// algorithm) behind every telemetry series, shared so the other users
// — internal/history's noise-aware regression gate and variation's
// sampler-equivalence test — reuse the exact same statistics instead
// of growing a second, subtly different implementation. The zero value
// is ready to use. Welford is not safe for concurrent use;
// telemetry.Series wraps it in a lock.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations
	min  float64
	max  float64
}

// Add folds one value into the accumulator.
func (w *Welford) Add(v float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the number of observations so far.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (zero before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation (zero before any observation).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (zero before any observation).
func (w *Welford) Max() float64 { return w.max }

// Std returns the sample standard deviation (n-1 denominator), zero
// until two observations exist.
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// CI95Mean returns the 95% confidence-interval half-width of the mean
// (z95·s/√n, normal approximation), +Inf until two observations exist
// — a single draw says nothing about its own uncertainty.
func (w *Welford) CI95Mean() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return z95 * math.Sqrt(w.m2/float64(w.n-1)/float64(w.n))
}

// Band95 returns the half-width of the 95% band for a single new
// observation (z95·s, normal approximation) — the tolerance the
// regression gate grants a fresh measurement before calling it an
// outlier. Zero until two observations exist.
func (w *Welford) Band95() float64 { return z95 * w.Std() }
