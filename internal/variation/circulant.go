// Circulant-embedding field sampling: the O(n log n) path behind
// SampleField for grids too large for the dense-Cholesky exact sampler.
//
// The systematic component is a stationary Gaussian field, so its
// covariance between two grid cells depends only on their separation.
// Embedding the covariance kernel on a periodic torus that is padded
// past the correlation range makes the covariance matrix
// block-circulant, and a block-circulant matrix is diagonalized by the
// 2-D DFT: one forward FFT of the kernel yields the full eigenvalue
// spectrum. A realization is then one more FFT of spectrally-shaped
// complex white noise — for the spherical correlogram (compact
// support) the torus covariance restricted to the sampling window is
// exactly the target covariance, so the draw is exact, not
// approximate, whenever the embedding's eigenvalues are nonnegative.
// Tiny negative eigenvalues from floating-point rounding are clamped
// to zero; the relative mass clamped is recorded and available via
// ClampedEigenMass for diagnostics.
package variation

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// circulantEigen is the one-per-(dims, params) precomputation: the
// square roots of the torus eigenvalues, pre-scaled so a draw is just
// FFT(sqrtLam .* Z). It is immutable after construction and shared
// freely between samplers through eigenCache.
type circulantEigen struct {
	m, n       int       // torus dims (power-of-two), m covers x, n covers y
	sqrtLam    []float64 // sqrt(max(lambda,0) / (m*n)), length m*n
	clampedRel float64   // |most negative eigenvalue| / largest, 0 when clean
}

// eigenCache memoizes torus eigen-decompositions per exact
// (grid dims, field parameters) key, with singleflight semantics like
// the Cholesky factor cache: a Monte-Carlo fleet pays one FFT of the
// covariance kernel per distinct field, no matter how many samplers
// are constructed concurrently.
var eigenCache = parallel.Cache[string, *circulantEigen]{Name: "variation.CirculantEigen"}

// stSample times every correlated-field draw (both the dense-Cholesky
// and the circulant path). The samplers take no context, so the stage
// feeds its histogram only and never a trace.
var stSample = telemetry.NewStage("variation.sample_ns")

// eigenKey encodes the exact bit patterns of the grid dims and field
// parameters, so distinct inputs can never collide.
func eigenKey(w, h int, fp FieldParams) string {
	buf := make([]byte, 0, 8*7)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h))
	put := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	put(fp.SigmaMu)
	put(fp.CorrRange)
	put(fp.SysFrac)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fp.Corr))
	return string(buf)
}

// negEigenTol is the relative negative-eigenvalue mass accepted from a
// padded embedding before the padding is doubled: rounding noise, not
// a structurally indefinite embedding.
const negEigenTol = 1e-9

// embedTorus builds the torus covariance kernel for a w x h sampling
// window at the given padding (in cells per axis) and eigendecomposes
// it with one forward 2-D FFT. minLam/maxLam report the spectrum's
// extremes before clamping.
func embedTorus(w, h, padX, padY int, fp FieldParams, sigmaSys float64) (eig *circulantEigen, minLam, maxLam float64) {
	m := mathx.NextPow2(w + padX)
	n := mathx.NextPow2(h + padY)
	re := make([]float64, m*n)
	im := make([]float64, m*n)
	dx := 1 / float64(w)
	dy := 1 / float64(h)
	s2 := sigmaSys * sigmaSys
	for j := 0; j < n; j++ {
		// Torus separation: the shorter way around each axis.
		wy := j
		if n-j < wy {
			wy = n - j
		}
		ry := float64(wy) * dy
		for i := 0; i < m; i++ {
			wx := i
			if m-i < wx {
				wx = m - i
			}
			rx := float64(wx) * dx
			re[j*m+i] = s2 * fp.corr(math.Sqrt(rx*rx+ry*ry))
		}
	}
	mathx.NewFFT2DPlan(m, n).Forward(re, im)
	minLam, maxLam = re[0], re[0]
	for _, l := range re {
		if l < minLam {
			minLam = l
		}
		if l > maxLam {
			maxLam = l
		}
	}
	scale := 1 / float64(m*n)
	sqrtLam := re // reuse the kernel buffer for the shaped spectrum
	for k, l := range re {
		if l < 0 {
			l = 0
		}
		sqrtLam[k] = math.Sqrt(l * scale)
	}
	eig = &circulantEigen{m: m, n: n, sqrtLam: sqrtLam}
	if maxLam > 0 && minLam < 0 {
		eig.clampedRel = -minLam / maxLam
	}
	return eig, minLam, maxLam
}

// newEigen computes the torus eigen-decomposition for a w x h grid,
// doubling the padding once if the first embedding shows more than
// rounding-level negative eigenvalue mass.
func newEigen(w, h int, fp FieldParams, sigmaSys float64) (*circulantEigen, error) {
	// Pad each axis past the correlation range (phi is a fraction of
	// the unit die, i.e. phi*w cells in x), so no pair of window cells
	// sees the short way around the torus within the range.
	padX := int(math.Ceil(fp.CorrRange*float64(w))) + 1
	padY := int(math.Ceil(fp.CorrRange*float64(h))) + 1
	eig, minLam, maxLam := embedTorus(w, h, padX, padY, fp, sigmaSys)
	if maxLam <= 0 {
		return nil, fmt.Errorf("variation: degenerate circulant embedding for %dx%d field", w, h)
	}
	if eig.clampedRel > negEigenTol {
		eig, minLam, maxLam = embedTorus(w, h, 2*padX, 2*padY, fp, sigmaSys)
		_ = minLam
		if maxLam <= 0 {
			return nil, fmt.Errorf("variation: degenerate circulant embedding for %dx%d field", w, h)
		}
	}
	return eig, nil
}

// CirculantSampler draws correlated relative deviations on a regular
// w x h grid covering the die in O(n log n) per realization, with the
// one eigen-decomposition per (dims, parameters) shared process-wide.
// Construct with NewCirculantSampler.
//
// A sampler reuses internal scratch between draws (SampleTo performs
// zero allocations), so draws on one sampler are serialized by an
// internal mutex; for parallel drawing build one sampler per goroutine
// — they share the cached eigen-decomposition, which is the expensive
// part.
type CirculantSampler struct {
	w, h     int
	params   FieldParams
	sigmaRnd float64
	eig      *circulantEigen // nil when SysFrac == 0

	mu     sync.Mutex
	fft    *mathx.FFT2DPlan
	re, im []float64
}

// NewCirculantSampler prepares the circulant sampler for a w x h grid
// of cell-centered points, the same layout SampleField uses. The
// eigen-decomposition is memoized process-wide (singleflight) under
// the variation.CirculantEigen cache, so concurrent constructions for
// the same (dims, parameters) share one spectral factorization.
func NewCirculantSampler(w, h int, fp FieldParams) (*CirculantSampler, error) {
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("variation: field dimensions must be positive")
	}
	sigmaSys := fp.SigmaMu * math.Sqrt(fp.SysFrac)
	s := &CirculantSampler{
		w:        w,
		h:        h,
		params:   fp,
		sigmaRnd: fp.SigmaMu * math.Sqrt(1-fp.SysFrac),
	}
	if sigmaSys > 0 {
		eig, err := eigenCache.Do(eigenKey(w, h, fp), func() (*circulantEigen, error) {
			return newEigen(w, h, fp, sigmaSys)
		})
		if err != nil {
			return nil, err
		}
		s.eig = eig
		s.fft = mathx.NewFFT2DPlan(eig.m, eig.n)
		s.re = make([]float64, eig.m*eig.n)
		s.im = make([]float64, eig.m*eig.n)
	}
	return s, nil
}

// ResetEigenCache empties the process-wide eigen-decomposition cache;
// it exists for benchmarks that need to measure cold-cache behavior.
func ResetEigenCache() { eigenCache.Reset() }

// Dims returns the grid dimensions.
func (s *CirculantSampler) Dims() (w, h int) { return s.w, s.h }

// N returns the number of grid points per realization.
func (s *CirculantSampler) N() int { return s.w * s.h }

// Params returns the field parameters the sampler was built with.
func (s *CirculantSampler) Params() FieldParams { return s.params }

// ClampedEigenMass reports the relative magnitude of the most negative
// torus eigenvalue that had to be clamped to zero (0 for a clean
// embedding). Values at rounding level (<= ~1e-9) are expected; larger
// values would signal an inadequate embedding.
func (s *CirculantSampler) ClampedEigenMass() float64 {
	if s.eig == nil {
		return 0
	}
	return s.eig.clampedRel
}

// Sample draws one realization as a freshly allocated row-major slice:
// element y*w+x is the fractional parameter deviation at grid cell
// (x, y). One allocation per call; use SampleTo to reuse a buffer.
func (s *CirculantSampler) Sample(rng *mathx.RNG) []float64 {
	dev := make([]float64, s.w*s.h)
	s.SampleTo(dev, rng)
	return dev
}

// SampleGrid draws one realization as a Grid2D.
func (s *CirculantSampler) SampleGrid(rng *mathx.RNG) *mathx.Grid2D {
	g := mathx.NewGrid2D(s.w, s.h)
	s.SampleTo(g.V, rng)
	return g
}

// SampleTo draws one realization into dst (length w*h), performing no
// allocations: the systematic component is FFT(sqrtLam .* Z) restricted
// to the sampling window, the random component is added per cell.
func (s *CirculantSampler) SampleTo(dst []float64, rng *mathx.RNG) {
	if len(dst) != s.w*s.h {
		panic("variation: SampleTo buffer length mismatch")
	}
	st := stSample.Begin(context.Background())
	s.mu.Lock()
	if s.eig != nil {
		// Spectrally-shaped complex white noise: with Z1 + i*Z2 per
		// mode, the real part of the transform carries the target
		// covariance exactly (and the imaginary part is an independent
		// realization this implementation discards for determinism's
		// sake — each draw depends only on its own RNG stream).
		for k, sl := range s.eig.sqrtLam {
			s.re[k] = sl * rng.StdNormal()
			s.im[k] = sl * rng.StdNormal()
		}
		s.fft.Forward(s.re, s.im)
		m := s.eig.m
		for y := 0; y < s.h; y++ {
			copy(dst[y*s.w:(y+1)*s.w], s.re[y*m:y*m+s.w])
		}
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	s.mu.Unlock()
	if s.sigmaRnd > 0 {
		for i := range dst {
			dst[i] += s.sigmaRnd * rng.StdNormal()
		}
	}
	st.End()
}

// emitFieldSampled records the domain event for one SampleField call.
func emitFieldSampled(w, h int, path string) {
	telemetry.NewEvent("field.sampled").
		Int("w", int64(w)).
		Int("h", int64(h)).
		Int("points", int64(w*h)).
		Str("path", path).
		Emit()
}
