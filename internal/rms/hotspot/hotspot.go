// Package hotspot reimplements Rodinia's hotspot kernel: an iterative
// explicit solver for the heat-transfer differential equations over a
// chip floorplan, producing the temperature at every cell of a grid
// superimposed on the floorplan.
//
// The Accordion input is the iteration count; both problem size and
// quality depend on it (Table 3 classifies the quality dependence as
// linear and the paper observes hotspot's quality is highly sensitive
// to problem size). Fault injection follows footnote 1: infected
// threads are prevented from solving the temperature equation and
// updating their cells, which therefore hold stale values that
// neighbouring rows keep reading.
package hotspot

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

// Benchmark is the hotspot kernel. Construct with New.
type Benchmark struct {
	w, h    int
	power   *mathx.Grid2D
	tAmb    float64 // ambient temperature (output is rise above this)
	alpha   float64 // conduction coefficient per iteration
	beta    float64 // power-injection coefficient
	cooling float64 // convective loss coefficient
}

// New builds the hotspot benchmark over its standard synthetic
// floorplan power map.
func New() *Benchmark {
	return &Benchmark{
		w:       64,
		h:       64,
		power:   workload.PowerMap(64, 64, 0x407),
		tAmb:    318, // 45 C in Kelvin; outputs are rises above this
		alpha:   0.2,
		beta:    1.5,
		cooling: 0.05,
	}
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "hotspot" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "physics simulation" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "number of iterations" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "SSD based" }

// DefaultInput implements rms.Benchmark.
func (b *Benchmark) DefaultInput() float64 { return 48 }

// HyperInput implements rms.Benchmark: effectively converged.
func (b *Benchmark) HyperInput() float64 { return 2048 }

// Sweep implements rms.Benchmark.
func (b *Benchmark) Sweep() []float64 {
	return rms.SweepGeometric(16, 112, 9)
}

// ProblemSize implements rms.Benchmark: linear in iterations.
func (b *Benchmark) ProblemSize(input float64) float64 {
	return input / b.DefaultInput()
}

// DependencePS implements rms.Benchmark (Table 3).
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Linear }

// DependenceQ implements rms.Benchmark (Table 3).
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Linear }

// DefaultThreads implements rms.Benchmark.
func (b *Benchmark) DefaultThreads() int { return 64 }

// Profile implements rms.Benchmark: a stencil kernel with streaming
// memory behaviour.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   6.0e9,
		SerialFrac:   0.003,
		CPIBase:      1.0,
		MissPerOp:    0.0011,
		MemLatencyNs: 80,
	}
}

// Run implements rms.Benchmark. Threads own contiguous row bands; the
// output is the temperature rise above ambient at every grid cell.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	if plan.Mode == fault.Invert {
		return rms.Result{}, fmt.Errorf("hotspot: the Invert error mode has no decision variable to invert")
	}
	iters := int(math.Round(input))
	if iters < 1 {
		iters = 1
	}
	w, h := b.w, b.h
	cur := mathx.NewGrid2D(w, h) // rise above ambient, starts at 0
	next := cur.Clone()

	rowOwner := func(y int) int { return y * threads / h }
	alpha, beta, cooling := b.alpha, b.beta, b.cooling
	for it := 0; it < iters; it++ {
		for y := 0; y < h; y++ {
			t := rowOwner(y)
			row, nextRow := cur.V[y*w:(y+1)*w], next.V[y*w:(y+1)*w]
			// Hotspot's parallel task unit is (iteration, row band): each
			// iteration spawns a fresh task set, so uniformly dropped
			// tasks rotate across the bands rather than starving a fixed
			// set of rows. An infected task skips the equation solve and
			// leaves its cells stale for this iteration (footnote 1).
			if plan.Mode == fault.Drop && plan.Infected((t+it)%threads) {
				if y == 0 || rowOwner(y-1) != t {
					plan.Note((t + it) % threads)
				}
				// The equation is not solved for these cells; copy the
				// stale values forward.
				copy(nextRow, row)
				continue
			}
			// Row slices hold the cells At read (a border row reads itself,
			// as c), and every expression keeps its operands and order.
			up, down := row, row // adiabatic borders
			if y > 0 {
				up = cur.V[(y-1)*w : y*w]
			}
			if y < h-1 {
				down = cur.V[(y+1)*w : (y+2)*w]
			}
			powerRow := b.power.V[y*w : (y+1)*w]
			for x := range row {
				c := row[x]
				left, right := c, c
				if x > 0 {
					left = row[x-1]
				}
				if x < w-1 {
					right = row[x+1]
				}
				lap := up[x] + down[x] + left + right - 4*c
				nextRow[x] = c + alpha*lap + beta*powerRow[x] - cooling*c
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, w*h)
	copy(out, cur.V)
	// Bit-corruption modes strike each infected thread's end result:
	// the temperatures of the rows it owns.
	if plan.Active() && plan.Mode != fault.Drop {
		for y := 0; y < h; y++ {
			t := rowOwner(y)
			if plan.Infected(t) {
				if y == 0 || rowOwner(y-1) != t {
					plan.Note(t)
				}
				for x := 0; x < w; x++ {
					out[y*w+x] = clampTemp(plan.CorruptValue(out[y*w+x], t))
				}
			}
		}
	}
	ops := float64(iters) * float64(w*h)
	if plan.Mode == fault.Drop {
		dropped := plan.CountInfected(threads)
		ops *= 1 - float64(dropped)/float64(threads)
	}
	return rms.Result{Output: out, Ops: ops}, nil
}

// clampTemp bounds a corrupted temperature rise to a physical range, as
// the application's sanity check would.
func clampTemp(v float64) float64 { return mathx.Clamp(v, -1e3, 1e3) }

// OwnerOfValue implements rms.ValueOwner: output value i is a grid
// cell, owned by the row band of its y coordinate.
func (b *Benchmark) OwnerOfValue(i, nValues, threads int) int {
	if nValues != b.w*b.h || threads <= 0 {
		return 0
	}
	y := i / b.w
	return y * threads / b.h
}

// Quality implements rms.Benchmark: 1 minus the SSD-based relative
// distortion (normalized RMS error of the temperature field against the
// hyper-accurate solution).
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	if len(run.Output) != len(ref.Output) || len(ref.Output) == 0 {
		return 0, fmt.Errorf("hotspot: malformed outputs")
	}
	d, err := quality.NRMSE(run.Output, ref.Output)
	if err != nil {
		return 0, err
	}
	return 1 - d, nil
}

// Trace implements rms.Benchmark: the stencil streams grid rows with
// near-perfect spatial locality.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.Streaming, WorkingSetBytes: 128 * 1024, StrideBytes: 8,
		MemFrac: 0.30, HotFrac: 0.970, HotBytes: 16 * 1024, Seed: 0x407,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
