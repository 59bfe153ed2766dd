// Package rmstest provides the conformance suite every RMS kernel must
// pass: metadata sanity, determinism, the monotone quality-vs-problem-
// size property Accordion relies on, and well-behaved degradation under
// the Drop error model.
package rmstest

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/rms"
	"repro/internal/sim"
)

// Conformance runs the full suite against b.
func Conformance(t *testing.T, b rms.Benchmark) {
	t.Helper()

	t.Run("metadata", func(t *testing.T) { metadata(t, b) })
	t.Run("determinism", func(t *testing.T) { determinism(t, b) })
	t.Run("problem-size", func(t *testing.T) { problemSize(t, b) })
	t.Run("quality-front", func(t *testing.T) { qualityFront(t, b) })
	t.Run("drop-degrades", func(t *testing.T) { dropDegrades(t, b) })
	t.Run("input-validation", func(t *testing.T) { inputValidation(t, b) })
	t.Run("trace-grounding", func(t *testing.T) { traceGrounding(t, b) })
}

// traceGrounding checks the analytic WorkProfile.MissPerOp against the
// trace-driven cache simulation of the kernel's declared reference mix:
// the abstraction must stay within a factor of five of the
// microarchitectural model.
func traceGrounding(t *testing.T, b rms.Benchmark) {
	spec := b.Trace()
	if err := spec.Validate(); err != nil {
		t.Fatalf("trace spec: %v", err)
	}
	res, err := sim.SimulateCore(spec, 300000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	declared := b.Profile().MissPerOp
	if declared <= 0 {
		t.Fatal("profile declares no memory behaviour")
	}
	if res.MissPerOp < declared/5 || res.MissPerOp > declared*5 {
		t.Errorf("trace-simulated MissPerOp %.2e vs declared %.2e diverge beyond 5x",
			res.MissPerOp, declared)
	}
}

func metadata(t *testing.T, b rms.Benchmark) {
	if b.Name() == "" || b.Domain() == "" || b.AccordionInput() == "" || b.QualityMetricName() == "" {
		t.Error("empty metadata")
	}
	if b.DefaultThreads() <= 0 {
		t.Error("non-positive default thread count")
	}
	if b.DefaultInput() <= 0 || b.HyperInput() <= b.DefaultInput() {
		t.Errorf("inputs out of order: default %g, hyper %g", b.DefaultInput(), b.HyperInput())
	}
	sweep := b.Sweep()
	if len(sweep) < 5 {
		t.Fatalf("sweep too short: %d points", len(sweep))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i] <= sweep[i-1] {
			t.Fatal("sweep not strictly increasing")
		}
	}
	if sweep[0] > b.DefaultInput() || sweep[len(sweep)-1] < b.DefaultInput() {
		t.Error("default input outside sweep range")
	}
	if err := b.Profile().Validate(); err != nil {
		t.Errorf("work profile: %v", err)
	}
}

func determinism(t *testing.T, b rms.Benchmark) {
	r1, err := b.Run(b.DefaultInput(), 8, fault.DropQuarter(), 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Run(b.DefaultInput(), 8, fault.DropQuarter(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Output) != len(r2.Output) || r1.Ops != r2.Ops {
		t.Fatal("repeated runs differ in shape")
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatal("repeated runs differ in output")
		}
	}
}

func problemSize(t *testing.T, b rms.Benchmark) {
	if ps := b.ProblemSize(b.DefaultInput()); ps < 0.999 || ps > 1.001 {
		t.Errorf("ProblemSize(default) = %g, want 1", ps)
	}
	sweep := b.Sweep()
	prev := 0.0
	for _, in := range sweep {
		ps := b.ProblemSize(in)
		if ps <= prev {
			t.Fatalf("problem size not increasing along sweep at input %g", in)
		}
		prev = ps
	}
	// Empirical work must track the analytic problem size: doubling the
	// problem roughly doubles executed ops.
	lo, err := b.Run(sweep[0], b.DefaultThreads(), fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := b.Run(sweep[len(sweep)-1], b.DefaultThreads(), fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Ops <= 0 || hi.Ops <= lo.Ops {
		t.Errorf("executed ops do not grow with problem size: %g -> %g", lo.Ops, hi.Ops)
	}
	psRatio := b.ProblemSize(sweep[len(sweep)-1]) / b.ProblemSize(sweep[0])
	opsRatio := hi.Ops / lo.Ops
	if opsRatio < 0.4*psRatio || opsRatio > 2.5*psRatio {
		t.Errorf("ops ratio %.2f diverges from problem-size ratio %.2f", opsRatio, psRatio)
	}
}

func qualityFront(t *testing.T, b rms.Benchmark) {
	ref, err := rms.Reference(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The reference scores (essentially) perfectly against itself.
	if q, err := b.Quality(ref, ref); err != nil || q < 0.999 || q > 1.001 {
		t.Fatalf("self-quality = %g, err = %v", q, err)
	}
	sweep := b.Sweep()
	threads := b.DefaultThreads()
	first, err := runQuality(b, sweep[0], threads, fault.Plan{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	last, err := runQuality(b, sweep[len(sweep)-1], threads, fault.Plan{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Errorf("quality does not improve along the sweep: %.4f -> %.4f", first, last)
	}
	if last > 1.05 {
		t.Errorf("quality %g exceeds the reference's", last)
	}
}

func dropDegrades(t *testing.T, b rms.Benchmark) {
	ref, err := rms.Reference(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	threads := b.DefaultThreads()
	in := b.DefaultInput()
	qDef, err := runQuality(b, in, threads, fault.Plan{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	qQuarter, err := runQuality(b, in, threads, fault.DropQuarter(), ref)
	if err != nil {
		t.Fatal(err)
	}
	qHalf, err := runQuality(b, in, threads, fault.DropHalf(), ref)
	if err != nil {
		t.Fatal(err)
	}
	// Non-determinism aside, dropping work must not help (paper allows
	// slight wiggle; we allow 2% of the default quality).
	tol := 0.02 * qDef
	if qQuarter > qDef+tol {
		t.Errorf("Drop 1/4 improved quality: %.4f vs %.4f", qQuarter, qDef)
	}
	if qHalf > qQuarter+tol {
		t.Errorf("Drop 1/2 beat Drop 1/4: %.4f vs %.4f", qHalf, qQuarter)
	}
	if qHalf <= 0 {
		t.Errorf("Drop 1/2 quality collapsed to %.4f; RMS apps should degrade gracefully", qHalf)
	}
}

func inputValidation(t *testing.T, b rms.Benchmark) {
	for _, input := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if _, err := b.Run(input, 8, fault.Plan{}, 1); err == nil {
			t.Errorf("input %g accepted", input)
		}
	}
	if _, err := b.Run(b.DefaultInput(), 0, fault.Plan{}, 1); err == nil {
		t.Error("zero threads accepted")
	}
}

func runQuality(b rms.Benchmark, input float64, threads int, plan fault.Plan, ref rms.Result) (float64, error) {
	r, err := b.Run(input, threads, plan, 1)
	if err != nil {
		return 0, err
	}
	return b.Quality(r, ref)
}
