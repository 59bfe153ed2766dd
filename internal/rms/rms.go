// Package rms defines the common harness for the six R(ecognition),
// M(ining), S(ynthesis) benchmarks of Table 3 — canneal, ferret,
// bodytrack, x264 (PARSEC) and hotspot, srad (Rodinia) — reimplemented
// as deterministic Go kernels.
//
// Every benchmark exposes one Accordion input: the application
// parameter that governs both the problem size and the output accuracy
// (swaps per temperature step, size factor, annealing layers, quantizer
// precision, iteration counts). Monotonically increasing the input
// grows the problem and improves the output, which is the property
// Accordion's problem-size knob relies on.
//
// Runs execute the real algorithm with the requested number of emulated
// parallel tasks and apply a fault plan at exactly the program points
// the paper's footnote 1 names (swap() for canneal, filtering and
// weight computation for bodytrack, macroblock encoding for x264, cell
// updates for hotspot, the full iteration body for srad, database-shard
// search for ferret).
package rms

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Dependence classifies how problem size or quality responds to the
// Accordion input (Table 3).
type Dependence int

// Dependence kinds.
const (
	Linear Dependence = iota
	Complex
)

// String names the dependence.
func (d Dependence) String() string {
	if d == Linear {
		return "linear"
	}
	return "complex"
}

// Result is one execution's observable outcome.
type Result struct {
	// Output holds the numeric output values the distortion metric
	// compares (routing cost, temperatures, pixels, tracked
	// configurations, ranked-list membership indicators).
	Output []float64
	// Ops counts the abstract work units actually executed, the
	// empirical problem size.
	Ops float64
}

// Benchmark is the contract every RMS kernel implements.
type Benchmark interface {
	// Name returns the benchmark's PARSEC/Rodinia name.
	Name() string
	// Domain returns the application domain of Table 3.
	Domain() string
	// AccordionInput names the input parameter serving as the knob.
	AccordionInput() string
	// QualityMetricName names the Table 3 quality metric.
	QualityMetricName() string

	// DefaultInput returns the knob value corresponding to the paper's
	// default (simsmall / as-provided) configuration.
	DefaultInput() float64
	// HyperInput returns the knob value of the hyper-accurate reference
	// execution quality is measured against.
	HyperInput() float64
	// Sweep returns the monotone knob sweep used for Figures 2 and 4.
	Sweep() []float64

	// ProblemSize returns the problem size at the given knob value,
	// normalized to 1 at DefaultInput.
	ProblemSize(input float64) float64

	// Run executes the kernel with the given knob value on `threads`
	// emulated parallel tasks under the fault plan. The same arguments
	// always produce the same result.
	Run(input float64, threads int, plan fault.Plan, seed int64) (Result, error)

	// Quality scores a run against the hyper-accurate reference;
	// 1 is a perfect match, lower is worse.
	Quality(run, ref Result) (float64, error)

	// DependencePS and DependenceQ return the Table 3 classification of
	// the problem-size and quality dependence on the Accordion input.
	DependencePS() Dependence
	DependenceQ() Dependence

	// Profile returns the machine-work characterization used by the
	// iso-execution-time solver.
	Profile() sim.WorkProfile

	// Trace returns the synthetic memory-reference mix that grounds the
	// Profile's MissPerOp in the trace-driven cache model (Table 2's
	// 64 KB private / 2 MB cluster hierarchy).
	Trace() sim.TraceSpec

	// DefaultThreads returns the thread count the paper profiled with
	// (64, except srad's 32).
	DefaultThreads() int
}

// kernelStages are one kernel's two stages, named like the
// benchmark's per-layer metrics: rms.<name>.run times its executions
// and quality.<name>.score its quality scores.
type kernelStages struct{ run, score *telemetry.Stage }

var (
	stagesMu sync.Mutex
	stages   = map[string]*kernelStages{}
)

// stagesOf returns the named kernel's stages, registering them on its
// first timed call.
func stagesOf(name string) *kernelStages {
	stagesMu.Lock()
	defer stagesMu.Unlock()
	st, ok := stages[name]
	if !ok {
		st = &kernelStages{
			run:   telemetry.NewStage("rms." + name + ".run"),
			score: telemetry.NewStage("quality." + name + ".score"),
		}
		stages[name] = st
	}
	return st
}

// Run is b.Run timed as one call of the kernel's rms.<name>.run stage,
// a child of the stage call ctx carries. Reference, the quality
// fronts, the solver's Execute and the experiment runners run kernels
// through it. While telemetry is off it costs one atomic load and
// allocates nothing.
func Run(ctx context.Context, b Benchmark, input float64, threads int, plan fault.Plan, seed int64) (Result, error) {
	if !telemetry.On() {
		return b.Run(input, threads, plan, seed)
	}
	defer stagesOf(b.Name()).run.Begin(ctx).End()
	return b.Run(input, threads, plan, seed)
}

// Quality is b.Quality timed as one call of the kernel's
// quality.<name>.score stage, at Run's cost. In a traced context the
// call's event carries the score as its quality annotation.
func Quality(ctx context.Context, b Benchmark, run, ref Result) (float64, error) {
	if !telemetry.On() {
		return b.Quality(run, ref)
	}
	st := stagesOf(b.Name()).score.Begin(ctx)
	defer st.End()
	q, err := b.Quality(run, ref)
	st.Float("quality", q)
	return q, err
}

// refKey identifies one reference execution: kernels are deterministic
// functions of (name, input, threads, seed), so the tuple pins the
// result exactly.
type refKey struct {
	name    string
	input   float64
	threads int
	seed    int64
}

func refKeyOf(b Benchmark, seed int64) refKey {
	return refKey{b.Name(), b.HyperInput(), b.DefaultThreads(), seed}
}

// refCache memoizes reference executions with singleflight semantics,
// so concurrent experiments profiling the same benchmark never
// duplicate the error-free baseline run.
var refCache = parallel.Cache[refKey, Result]{Name: "rms.Reference", Max: refCacheMax}

// refCacheMax bounds refCache at eight workload seeds' references of
// the seven kernels: a run asks for one per kernel at its seed, so no
// run evicts its own, and a service asked for ever new seeds holds a
// bounded number.
const refCacheMax = 8 * 7

// Reference runs the hyper-accurate fault-free execution a benchmark's
// quality is measured against. Results are memoized per (benchmark,
// input, threads, seed) — the baseline is the single most re-run
// execution in the repository — and concurrent callers share one
// in-flight run. The returned Result owns its Output slice; callers
// may mutate it freely.
func Reference(b Benchmark, seed int64) (Result, error) {
	return ReferenceCtx(context.Background(), b, seed)
}

// ReferenceCtx is Reference under ctx's trace: the run that fills the
// memo is an rms.<name>.run stage under ctx's stage call. The context
// is the stage parent only, never cancellation of the baseline run.
func ReferenceCtx(ctx context.Context, b Benchmark, seed int64) (Result, error) {
	res, err := refCache.Do(refKeyOf(b, seed), func() (Result, error) {
		return Run(ctx, b, b.HyperInput(), b.DefaultThreads(), fault.Plan{}, seed)
	})
	if err != nil {
		return Result{}, err
	}
	res.Output = append([]float64(nil), res.Output...)
	return res, nil
}

// ReadyReference returns Reference(b, seed) if that run has finished,
// without running or copying it: the Output is the memo's own, so
// callers must only read it. ok is false while the reference is still
// running or was never asked for.
func ReadyReference(b Benchmark, seed int64) (ref Result, ok bool) {
	return refCache.Get(refKeyOf(b, seed))
}

// runKey identifies one kernel run by every argument Run is a pure
// function of. Its plan never carries a Ledger.
type runKey struct {
	name    string
	input   float64
	threads int
	plan    fault.Plan
	seed    int64
}

// runCache memoizes kernel runs with singleflight semantics, so the
// fronts and the experiment runners that ask for the same run share
// one execution.
var runCache = parallel.Cache[runKey, *Memo]{Name: "rms.Run", Max: runCacheMax}

// runCacheMax bounds runCache at eight workload seeds' runs, like
// refCacheMax: `accordion all` memoizes 226 runs at its seed (189 front
// cells, 19 corruption and 24 corruptionwide runs, 6 of them shared),
// so no run evicts its own.
const runCacheMax = 8 * 240

// Memo is one memoized kernel run. It holds the run's Result until the
// run is scored against its reference, and from then on only the
// score, so the memo keeps no kernel output for long.
type Memo struct {
	mu     sync.Mutex
	res    Result
	q      float64
	scored bool
}

// RunMemo returns b's run at (input, threads, plan, seed). The first
// call for those arguments executes it through Run under ctx's stage
// call; later and concurrent callers share that run. A plan that
// carries a Ledger bypasses the memo, since its run's point is the
// notes it makes.
func RunMemo(ctx context.Context, b Benchmark, input float64, threads int, plan fault.Plan, seed int64) (*Memo, error) {
	run := func() (*Memo, error) {
		res, err := Run(ctx, b, input, threads, plan, seed)
		if err != nil {
			return nil, err
		}
		return &Memo{res: res}, nil
	}
	if plan.Ledger != nil {
		return run()
	}
	return runCache.Do(runKey{b.Name(), input, threads, plan, seed}, run)
}

// Score returns the run's quality against ref, which must be the
// run's Reference(b, seed). A call scores the run through Quality and
// drops its Result, unless an earlier call has: then it returns that
// score. Callers that score one run at the same moment may both score
// it, and store the same value.
func (m *Memo) Score(ctx context.Context, b Benchmark, ref Result) (float64, error) {
	m.mu.Lock()
	res, q, scored := m.res, m.q, m.scored
	m.mu.Unlock()
	if scored {
		return q, nil
	}
	q, err := Quality(ctx, b, res, ref)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.res, m.q, m.scored = Result{}, q, true
	m.mu.Unlock()
	return q, nil
}

// ResetReferenceCache empties the memoized reference executions and
// the run memo, whose scores were taken against them; it exists for
// benchmarks that need to measure cold-cache behavior.
func ResetReferenceCache() {
	refCache.Reset()
	runCache.Reset()
}

// ValidateInput rejects non-positive, NaN and infinite knob values.
func ValidateInput(name string, input float64) error {
	if input <= 0 || math.IsNaN(input) || math.IsInf(input, 1) {
		return fmt.Errorf("rms: %s input must be positive and finite, got %g", name, input)
	}
	return nil
}

// ValidateThreads rejects non-positive thread counts.
func ValidateThreads(name string, threads int) error {
	if threads <= 0 {
		return fmt.Errorf("rms: %s thread count must be positive, got %d", name, threads)
	}
	return nil
}

// SweepGeometric builds a monotone knob sweep of n points spanning
// [lo, hi] multiplicatively around a benchmark's default.
func SweepGeometric(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo || lo <= 0 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		t := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(ratio, t)
	}
	return out
}
