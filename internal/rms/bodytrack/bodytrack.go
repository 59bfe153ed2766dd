// Package bodytrack reimplements PARSEC's bodytrack kernel: an
// annealed particle filter (APF) tracking an articulated-body
// configuration through a scene of noisy observations.
//
// The Accordion input is the number of annealing layers, which affects
// both the filtering accuracy and the problem size (Table 3). The
// output is the vector of tracked configurations over all frames, and
// distortion is SSD-based. Fault injection follows footnote 1:
// infected threads are prevented from computing their particles'
// weights, so those particles never survive resampling — which is why
// the paper finds bodytrack the most error-sensitive benchmark.
package bodytrack

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

// Benchmark is the bodytrack kernel. Construct with New.
type Benchmark struct {
	scene     *workload.PoseTrajectory
	particles int
	obsSigma  float64 // observation-model sigma
	initScale float64 // initial particle scatter
}

// New builds the bodytrack benchmark over its standard synthetic scene.
func New() (*Benchmark, error) {
	scene, err := workload.NewPoseTrajectory(48, 6, 0.25, 0xB0D)
	if err != nil {
		return nil, err
	}
	return &Benchmark{scene: scene, particles: 256, obsSigma: 0.25, initScale: 0.5}, nil
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "bodytrack" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "computer vision" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "number of annealing layers" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "SSD based" }

// DefaultInput implements rms.Benchmark.
func (b *Benchmark) DefaultInput() float64 { return 4 }

// HyperInput implements rms.Benchmark.
func (b *Benchmark) HyperInput() float64 { return 24 }

// Sweep implements rms.Benchmark: layer counts are integral.
func (b *Benchmark) Sweep() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 8, 10, 12}
}

// ProblemSize implements rms.Benchmark: each annealing layer weights,
// resamples and perturbs the full particle set.
func (b *Benchmark) ProblemSize(input float64) float64 {
	return input / b.DefaultInput()
}

// DependencePS implements rms.Benchmark (Table 3).
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Complex }

// DependenceQ implements rms.Benchmark (Table 3).
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Complex }

// DefaultThreads implements rms.Benchmark.
func (b *Benchmark) DefaultThreads() int { return 64 }

// Profile implements rms.Benchmark.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   8.0e9,
		SerialFrac:   0.005,
		CPIBase:      1.0,
		MissPerOp:    0.0012,
		MemLatencyNs: 80,
	}
}

// Run implements rms.Benchmark. The output is the tracked configuration
// (joint angles) for every frame, flattened frame-major.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	if plan.Mode == fault.Invert {
		return rms.Result{}, fmt.Errorf("bodytrack: the Invert error mode has no decision variable to invert")
	}
	layers := int(math.Round(input))
	if layers < 1 {
		layers = 1
	}
	frames, joints := b.scene.Frames, b.scene.Joints
	p := b.particles
	rng := mathx.NewRNG(seed)

	owner := func(i int) int { return i * threads / p }

	// Particle cloud and its running center (the previous estimate).
	states := make([][]float64, p)
	for i := range states {
		states[i] = make([]float64, joints)
	}
	center := make([]float64, joints)
	copy(center, b.scene.Obs[0])

	weights := make([]float64, p)
	ops := 0.0
	out := make([]float64, 0, frames*joints)

	const (
		processNoise = 0.35 // first-layer scatter around the prediction
		layerDecay   = 0.7  // per-layer contraction of the diffusion
	)

	// Footnote 1 drops bodytrack tasks in two places: the image row/
	// column filtering of ParticleFilterPthread::Exec and the particle
	// weight computation of TrackingModelPthread::Exec. Unfiltered
	// image slices make the measurement noisier in proportion to the
	// dropped share; the extra noise is drawn from a dedicated stream
	// so the particle draws stay comparable across plans.
	dropFrac := 0.0
	if plan.Mode == fault.Drop {
		dropFrac = float64(plan.CountInfected(threads)) / float64(threads)
	}
	obsRng := mathx.NewRNG(seed).Split(0x0B5)

	for f := 0; f < frames; f++ {
		obs := make([]float64, joints)
		copy(obs, b.scene.Obs[f])
		for j := range obs {
			extra := obsRng.Normal(0, 1)
			if dropFrac > 0 {
				obs[j] += 1.3 * dropFrac * extra
			}
		}
		for l := 0; l < layers; l++ {
			// Diffusion: scatter the cloud around the running center,
			// contracting geometrically as annealing progresses.
			sigma := processNoise * math.Pow(layerDecay, float64(l))
			for i := 0; i < p; i++ {
				for j := 0; j < joints; j++ {
					states[i][j] = center[j] + rng.Normal(0, sigma)
				}
			}
			// Annealing: sharpen the likelihood layer by layer.
			beta := (float64(l) + 1) / float64(layers)
			// Weight phase (data-parallel over particles).
			sum := 0.0
			for i := 0; i < p; i++ {
				t := owner(i)
				infected := plan.Infected(t)
				if infected && plan.Active() && (i == 0 || owner(i-1) != t) {
					plan.Note(t)
				}
				if plan.Mode == fault.Drop && infected {
					weights[i] = 0 // weight computation prevented
					continue
				}
				d2 := 0.0
				for j := 0; j < joints; j++ {
					diff := states[i][j] - obs[j]
					d2 += diff * diff
				}
				w := math.Exp(-beta * d2 / (2 * b.obsSigma * b.obsSigma))
				if plan.Active() && plan.Mode != fault.Drop && infected {
					// A corrupted weight is still just a number the
					// reduction consumes; the application's range check
					// clamps it so one bogus particle cannot overflow
					// the normalization into Inf/NaN.
					w = mathx.Clamp(math.Abs(plan.CorruptValue(w, t)), 0, 1e12)
				}
				weights[i] = w
				sum += w
				ops++
			}
			// Selection (control phase): recenter on the weighted mean.
			// With every weight lost (all particles dropped or a
			// degenerate likelihood) the center simply persists, the
			// application's recovery path.
			if sum > 0 {
				for j := 0; j < joints; j++ {
					m := 0.0
					for i := 0; i < p; i++ {
						m += weights[i] * states[i][j]
					}
					center[j] = m / sum
				}
			}
		}
		out = append(out, center...)
		// Next frame predicts from the current estimate (the cloud is
		// re-scattered at the first layer).
	}
	return rms.Result{Output: out, Ops: ops}, nil
}

// Quality implements rms.Benchmark: 1 minus the SSD-based relative
// distortion of the tracked configurations against the hyper-accurate
// reference.
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	if len(run.Output) != len(ref.Output) || len(ref.Output) == 0 {
		return 0, fmt.Errorf("bodytrack: malformed outputs")
	}
	d, err := quality.NRMSE(run.Output, ref.Output)
	if err != nil {
		return 0, err
	}
	return 1 - d, nil
}

// Trace implements rms.Benchmark: particle state scatters over a
// megabyte-scale arena that overflows the private memory but rides the
// cluster memory.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.RandomUniform, WorkingSetBytes: 1 << 20,
		MemFrac: 0.30, HotFrac: 0.996, HotBytes: 16 * 1024, Seed: 0xB0D,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
