package variation

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/converge"
	"repro/internal/mathx"
)

// gridPoints builds the cell-centered point set SampleField uses, for
// driving the dense sampler on the same layout as the circulant one.
func gridPoints(w, h int) []Point {
	pts := make([]Point, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, Point{
				X: (float64(x) + 0.5) / float64(w),
				Y: (float64(y) + 0.5) / float64(h),
			})
		}
	}
	return pts
}

// fieldStats streams per-draw spatial means into a converge series and
// accumulates the pooled second moment plus lagged cross-products for
// the correlation-vs-distance curve.
type fieldStats struct {
	series string
	lags   []int
	n      int64     // pooled value count
	sum    float64   // pooled sum
	sumSq  float64   // pooled sum of squares
	lagN   []int64   // pair count per lag
	lagSum []float64 // sum of products per lag
}

func newFieldStats(series string, lags []int) *fieldStats {
	return &fieldStats{
		series: series,
		lags:   lags,
		lagN:   make([]int64, len(lags)),
		lagSum: make([]float64, len(lags)),
	}
}

func (st *fieldStats) observe(dev []float64, w, h int) {
	var sum float64
	for _, v := range dev {
		sum += v
		st.sumSq += v * v
	}
	st.sum += sum
	st.n += int64(len(dev))
	converge.Observe(st.series, "dev", sum/float64(len(dev)))
	for li, lag := range st.lags {
		for y := 0; y < h; y++ {
			row := dev[y*w : (y+1)*w]
			for x := 0; x+lag < w; x++ {
				st.lagSum[li] += row[x] * row[x+lag]
				st.lagN[li]++
			}
		}
	}
}

func (st *fieldStats) variance() float64 {
	mean := st.sum / float64(st.n)
	return st.sumSq/float64(st.n) - mean*mean
}

// corrAt returns the empirical correlation at lag index li, normalizing
// the lagged product by the pooled variance (the field is zero-mean by
// construction, and the mean test pins that separately).
func (st *fieldStats) corrAt(li int) float64 {
	return st.lagSum[li] / float64(st.lagN[li]) / st.variance()
}

// The circulant sampler must reproduce the dense sampler's
// distribution: matching mean (within the converge CI bounds),
// matching total variance, and a matching correlation-vs-distance
// curve against the analytic model SysFrac * rho(r).
func TestCirculantMatchesDenseStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("many-draw statistical comparison")
	}
	const w, h, draws = 24, 24, 500
	fp := DefaultVth()
	lags := []int{1, 2, 4, 8}

	converge.Reset()

	dense, err := NewSampler(gridPoints(w, h), fp)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := NewCirculantSampler(w, h, fp)
	if err != nil {
		t.Fatal(err)
	}
	if mass := circ.ClampedEigenMass(); mass > 1e-9 {
		t.Errorf("embedding clamped eigenvalue mass %g, want rounding level", mass)
	}

	dRng, cRng := mathx.NewRNG(1101), mathx.NewRNG(2202)
	dStats := newFieldStats("equiv.dense.mean", lags)
	cStats := newFieldStats("equiv.circulant.mean", lags)
	buf := make([]float64, w*h)
	for i := 0; i < draws; i++ {
		dStats.observe(dense.Sample(dRng), w, h)
		circ.SampleTo(buf, cRng)
		cStats.observe(buf, w, h)
	}

	// Mean: each sampler's per-draw spatial means are iid across draws,
	// so the converge CI95 half-widths bound both population means.
	snap := converge.Capture()
	byName := map[string]converge.SeriesSnapshot{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	dMean, cMean := byName["equiv.dense.mean"], byName["equiv.circulant.mean"]
	if dMean.Count != draws || cMean.Count != draws {
		t.Fatalf("converge observed %d/%d draws, want %d", dMean.Count, cMean.Count, draws)
	}
	if diff := math.Abs(dMean.Mean - cMean.Mean); diff > 2*(dMean.CI95+cMean.CI95) {
		t.Errorf("means differ: dense %.5f±%.5f vs circulant %.5f±%.5f",
			dMean.Mean, dMean.CI95, cMean.Mean, cMean.CI95)
	}
	if math.Abs(cMean.Mean) > 3*cMean.CI95 {
		t.Errorf("circulant mean %.5f outside 3x CI95 %.5f of zero", cMean.Mean, cMean.CI95)
	}

	// Total variance: both must sit near sigma^2 and near each other.
	sigma2 := fp.SigmaMu * fp.SigmaMu
	dVar, cVar := dStats.variance(), cStats.variance()
	for name, v := range map[string]float64{"dense": dVar, "circulant": cVar} {
		if v < 0.85*sigma2 || v > 1.15*sigma2 {
			t.Errorf("%s variance %.6f, want ~%.6f", name, v, sigma2)
		}
	}
	if math.Abs(dVar-cVar) > 0.12*sigma2 {
		t.Errorf("variances differ: dense %.6f vs circulant %.6f", dVar, cVar)
	}

	// Correlation vs distance: the total-deviation correlation at lag r
	// is SysFrac * rho(r) (the random component decorrelates the rest).
	for li, lag := range lags {
		r := float64(lag) / float64(w)
		model := fp.SysFrac * SphericalCorr(r, fp.CorrRange)
		for name, st := range map[string]*fieldStats{"dense": dStats, "circulant": cStats} {
			if got := st.corrAt(li); math.Abs(got-model) > 0.06 {
				t.Errorf("%s correlation at lag %d: %.4f, want %.4f±0.06", name, lag, got, model)
			}
		}
	}
}

// SampleField must succeed far beyond the old 4096-point exact-sampling
// cap (the historical TestSampleFieldCapsSize asserted an error here).
func TestSampleFieldLiftsCap(t *testing.T) {
	g, err := SampleField(128, 128, DefaultVth(), mathx.NewRNG(1))
	if err != nil {
		t.Fatalf("128x128 field: %v", err)
	}
	if g.W != 128 || g.H != 128 {
		t.Fatalf("bad grid dims %dx%d", g.W, g.H)
	}
	min, max := mathx.MinMax(g.V)
	if min == max {
		t.Error("degenerate field")
	}
	if math.Abs(min) > 1 || math.Abs(max) > 1 {
		t.Errorf("implausible deviations: [%g, %g]", min, max)
	}
	if sd := mathx.StdDev(g.V); sd < 0.08 || sd > 0.25 {
		t.Errorf("field sigma %.4f, want ~0.15", sd)
	}
}

func TestCirculantSamplerValidates(t *testing.T) {
	if _, err := NewCirculantSampler(0, 4, DefaultVth()); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewCirculantSampler(4, -1, DefaultVth()); err == nil {
		t.Error("negative height accepted")
	}
	if _, err := NewCirculantSampler(4, 4, FieldParams{SigmaMu: 9, CorrRange: 0.1}); err == nil {
		t.Error("implausible params accepted")
	}
}

func TestCirculantDeterminism(t *testing.T) {
	s1, err := NewCirculantSampler(32, 16, DefaultVth())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewCirculantSampler(32, 16, DefaultVth())
	if err != nil {
		t.Fatal(err)
	}
	d1 := s1.Sample(mathx.NewRNG(77))
	d2 := s2.Sample(mathx.NewRNG(77))
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("circulant sampling is not reproducible")
		}
	}
	if w, h := s1.Dims(); w != 32 || h != 16 || s1.N() != 512 {
		t.Error("dims accessors wrong")
	}
	if s1.Params() != DefaultVth() {
		t.Error("params accessor wrong")
	}
}

// SysFrac 0 must work without an embedding and produce uncorrelated
// deviations; SysFrac 1 must produce a smooth pure-systematic field.
func TestCirculantComponentExtremes(t *testing.T) {
	rng := mathx.NewRNG(5)
	pure, err := NewCirculantSampler(16, 16, FieldParams{SigmaMu: 0.1, CorrRange: 0.1, SysFrac: 0})
	if err != nil {
		t.Fatal(err)
	}
	n := 3000
	a, b := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		d := pure.Sample(rng)
		a[i], b[i] = d[0], d[1]
	}
	if r := mathx.Pearson(a, b); math.Abs(r) > 0.06 {
		t.Errorf("random-only field correlates: r=%.3f", r)
	}

	sys, err := NewCirculantSampler(16, 16, FieldParams{SigmaMu: 0.1, CorrRange: 0.5, SysFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := sys.Sample(rng)
		a[i], b[i] = d[0], d[1]
	}
	// Adjacent cells at 1/16 of the die with range 0.5 are highly
	// correlated under the spherical model (~0.81).
	if r := mathx.Pearson(a, b); r < 0.6 {
		t.Errorf("pure-systematic neighbors decorrelated: r=%.3f", r)
	}
}

// The zero-allocation draw contract: SampleTo allocates nothing, and
// Sample allocates only its result slice.
func TestCirculantSampleAllocations(t *testing.T) {
	s, err := NewCirculantSampler(64, 64, DefaultVth())
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(9)
	dst := make([]float64, s.N())
	if allocs := testing.AllocsPerRun(10, func() { s.SampleTo(dst, rng) }); allocs != 0 {
		t.Errorf("SampleTo allocates %g objects per draw, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Sample(rng) }); allocs > 1 {
		t.Errorf("Sample allocates %g objects per draw, want <= 1", allocs)
	}
}

// Concurrent constructions share one cached eigen-decomposition, and
// SampleTo rejects a wrong-size buffer.
func TestCirculantEigenCacheSharing(t *testing.T) {
	ResetEigenCache()
	a, err := NewCirculantSampler(40, 40, DefaultVth())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCirculantSampler(40, 40, DefaultVth())
	if err != nil {
		t.Fatal(err)
	}
	if a.eig != b.eig {
		t.Error("same (dims, params) did not share the cached eigen-decomposition")
	}
	if c, _ := NewCirculantSampler(40, 20, DefaultVth()); c.eig == a.eig {
		t.Error("distinct dims shared an eigen-decomposition")
	}
	defer func() {
		if recover() == nil {
			t.Error("SampleTo accepted a wrong-size buffer")
		}
	}()
	a.SampleTo(make([]float64, 7), mathx.NewRNG(1))
}

// The embedding spectra stay clean (no more than rounding-level
// clamping) across the parameter families and grid shapes the
// repository uses.
func TestCirculantEmbeddingSpectra(t *testing.T) {
	cases := []struct {
		w, h int
		fp   FieldParams
	}{
		{64, 64, DefaultVth()},
		{128, 128, DefaultVth()},
		{96, 48, DefaultLeff()},
		{80, 80, FieldParams{SigmaMu: 0.15, CorrRange: 0.1, SysFrac: 0.5, Corr: Exponential}},
		{33, 65, FieldParams{SigmaMu: 0.1, CorrRange: 0.4, SysFrac: 0.8}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			s, err := NewCirculantSampler(c.w, c.h, c.fp)
			if err != nil {
				t.Fatal(err)
			}
			if mass := s.ClampedEigenMass(); mass > 1e-6 {
				t.Errorf("clamped eigenvalue mass %g, want <= 1e-6", mass)
			}
		})
	}
}
