// Package srad reimplements Rodinia's srad kernel: Speckle-Reducing
// Anisotropic Diffusion, an iterative PDE solver that removes
// correlated multiplicative noise from ultrasound/radar imagery while
// preserving edges.
//
// The Accordion input is the iteration count (linear problem-size and
// quality dependence per Table 3). Fault injection follows footnote 1:
// an infected per-iteration task skips the calculation of directional
// derivatives, ICOV, diffusion coefficients, divergence and the image
// update for its rows in that iteration; as in hotspot, the per-
// iteration task decomposition makes uniformly dropped tasks rotate
// across row bands.
package srad

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Benchmark is the srad kernel. Construct with New.
type Benchmark struct {
	w, h  int
	noisy *mathx.Grid2D
	clean *mathx.Grid2D
	dt    float64
}

// New builds the srad benchmark over its standard speckled image.
func New() *Benchmark {
	clean, noisy := workload.SpeckleImage(64, 64, 0.25, 0x57AD)
	return &Benchmark{w: 64, h: 64, noisy: noisy, clean: clean, dt: 0.2}
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "srad" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "image processing" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "number of iterations" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "PSNR based" }

// DefaultInput implements rms.Benchmark.
func (b *Benchmark) DefaultInput() float64 { return 32 }

// HyperInput implements rms.Benchmark.
func (b *Benchmark) HyperInput() float64 { return 1024 }

// Sweep implements rms.Benchmark.
func (b *Benchmark) Sweep() []float64 {
	return rms.SweepGeometric(10, 80, 9)
}

// ProblemSize implements rms.Benchmark: linear in iterations.
func (b *Benchmark) ProblemSize(input float64) float64 {
	return input / b.DefaultInput()
}

// DependencePS implements rms.Benchmark (Table 3).
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Linear }

// DependenceQ implements rms.Benchmark (Table 3).
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Linear }

// DefaultThreads implements rms.Benchmark: the paper profiles srad
// under 32 threads.
func (b *Benchmark) DefaultThreads() int { return 32 }

// Profile implements rms.Benchmark.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   5.0e9,
		SerialFrac:   0.003,
		CPIBase:      1.0,
		MissPerOp:    0.0009,
		MemLatencyNs: 80,
	}
}

// Run implements rms.Benchmark. The output is the denoised image.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	if plan.Mode == fault.Invert {
		return rms.Result{}, fmt.Errorf("srad: the Invert error mode has no decision variable to invert")
	}
	iters := int(math.Round(input))
	if iters < 1 {
		iters = 1
	}
	w, h := b.w, b.h
	img := b.noisy.Clone()
	coef := mathx.NewGrid2D(w, h)
	// Double buffer for the update pass, allocated once: per-iteration
	// Clone was a measurable slice of the simulator's total allocation.
	next := mathx.NewGrid2D(w, h)
	rowOwner := func(y int) int { return y * threads / h }
	// rowAt is row clampIdx(y) of g: the cells At read along that row.
	rowAt := func(g *mathx.Grid2D, y int) []float64 {
		r := clampIdx(y, h) * w
		return g.V[r : r+w]
	}
	dt := b.dt
	ops := 0.0

	for it := 0; it < iters; it++ {
		// Speckle scale q0 from global statistics (the homogeneous-
		// region estimate of the original algorithm).
		mean, variance := imageStats(img)
		q0sq := variance / (mean * mean)
		if q0sq <= 0 {
			q0sq = 1e-6
		}

		// Pass 1: ICOV and diffusion coefficient per cell.
		for y := 0; y < h; y++ {
			if plan.Mode == fault.Drop && plan.Infected((rowOwner(y)+it)%threads) {
				if y == 0 || rowOwner(y-1) != rowOwner(y) {
					plan.Note((rowOwner(y) + it) % threads)
				}
				continue // derivatives/ICOV/coefficients skipped
			}
			// Row slices hold the cells At read, and every expression keeps
			// its operands and their order, so the bits cannot move.
			row, north, south := rowAt(img, y), rowAt(img, y-1), rowAt(img, y+1)
			coefRow := rowAt(coef, y)
			for x := range row {
				c := row[x]
				if c == 0 {
					c = 1e-6
				}
				dN := north[x] - c
				dS := south[x] - c
				dW := row[clampIdx(x-1, w)] - c
				dE := row[clampIdx(x+1, w)] - c
				g2 := (dN*dN + dS*dS + dW*dW + dE*dE) / (c * c)
				l := (dN + dS + dW + dE) / c
				num := 0.5*g2 - (1.0/16.0)*l*l
				den := (1 + 0.25*l) * (1 + 0.25*l)
				qsq := num / den
				d := (qsq - q0sq) / (q0sq * (1 + q0sq))
				coefRow[x] = mathx.Clamp(1/(1+d), 0, 1)
				ops++
			}
		}
		// Pass 2: divergence and image update. Skipped (dropped) rows
		// must keep the current image's values, so the whole frame is
		// copied before the updated rows overwrite their slots — the
		// same stale-row semantics the per-iteration Clone had.
		copy(next.V, img.V)
		for y := 0; y < h; y++ {
			if plan.Mode == fault.Drop && plan.Infected((rowOwner(y)+it)%threads) {
				continue // divergence and update skipped; cells stale
			}
			// As in pass 1: the same cells, operands and order.
			row, north, south := rowAt(img, y), rowAt(img, y-1), rowAt(img, y+1)
			coefRow, coefSouth, nextRow := rowAt(coef, y), rowAt(coef, y+1), rowAt(next, y)
			for x := range row {
				c := row[x]
				cC := coefRow[x]
				cS := coefSouth[x]
				cE := coefRow[clampIdx(x+1, w)]
				div := cS*(south[x]-c) +
					cC*(north[x]-c) +
					cE*(row[clampIdx(x+1, w)]-c) +
					cC*(row[clampIdx(x-1, w)]-c)
				nextRow[x] = mathx.Clamp(c+0.25*dt*div, 0, 255)
			}
		}
		img, next = next, img
	}
	out := make([]float64, w*h)
	copy(out, img.V)
	// Value-corruption modes strike each infected thread's final rows.
	if plan.Active() && plan.Mode != fault.Drop {
		for y := 0; y < h; y++ {
			t := rowOwner(y)
			if plan.Infected(t) {
				if y == 0 || rowOwner(y-1) != t {
					plan.Note(t)
				}
				for x := 0; x < w; x++ {
					out[y*w+x] = mathx.Clamp(plan.CorruptValue(out[y*w+x], t), 0, 255)
				}
			}
		}
	}
	return rms.Result{Output: out, Ops: ops}, nil
}

// OwnerOfValue implements rms.ValueOwner: output value i is an image
// pixel, owned by the row band of its y coordinate.
func (b *Benchmark) OwnerOfValue(i, nValues, threads int) int {
	if nValues != b.w*b.h || threads <= 0 {
		return 0
	}
	y := i / b.w
	return y * threads / b.h
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func imageStats(g *mathx.Grid2D) (mean, variance float64) {
	mean = mathx.Mean(g.V)
	sd := mathx.StdDev(g.V)
	return mean, sd * sd
}

// psnrCap is the PSNR (dB) treated as a perfect reconstruction when
// normalizing the PSNR-based quality to [0, 1].
const psnrCap = 60.0

// Quality implements rms.Benchmark: PSNR of the run against the
// hyper-accurate output, normalized so the reference scores 1.
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	if len(run.Output) != len(ref.Output) || len(ref.Output) == 0 {
		return 0, fmt.Errorf("srad: malformed outputs")
	}
	p, err := quality.PSNR(run.Output, ref.Output)
	if err != nil {
		return 0, err
	}
	if math.IsInf(p, 1) || p > psnrCap {
		p = psnrCap
	}
	if p < 0 {
		p = 0
	}
	return p / psnrCap, nil
}

// Trace implements rms.Benchmark: like hotspot, a streaming stencil.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.Streaming, WorkingSetBytes: 128 * 1024, StrideBytes: 8,
		MemFrac: 0.30, HotFrac: 0.976, HotBytes: 16 * 1024, Seed: 0x57A,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
