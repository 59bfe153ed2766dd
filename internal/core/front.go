package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/rms"
	"repro/internal/telemetry"
)

// Front measurement stages: the whole measurement, its reference run,
// and each (scenario, input) profiling cell.
var (
	stFront    = telemetry.NewStage("core.front")
	stFrontRef = telemetry.NewStage("core.front.reference")
	stCell     = telemetry.NewStage("core.front.cell")
)

// QualityFront is the measured quality-vs-problem-size characteristic
// of one benchmark under one error scenario (Figures 2 and 4), usable
// as an interpolator by the operating-point solver.
type QualityFront struct {
	Benchmark string
	Scenario  string // "default", "drop-1/4", "drop-1/2"
	// Parallel arrays, ascending in problem size.
	Inputs       []float64
	ProblemSizes []float64
	Quality      []float64 // absolute quality vs the hyper-accurate reference
}

// At interpolates the absolute quality at a relative problem size.
func (f *QualityFront) At(problemSize float64) float64 {
	return mathx.InterpMonotone(f.ProblemSizes, f.Quality, problemSize)
}

// QualityModel bundles a benchmark's fronts for all three scenarios and
// answers the solver's quality queries.
type QualityModel struct {
	Benchmark string
	Default   *QualityFront
	Quarter   *QualityFront
	Half      *QualityFront
}

// MeasureFronts runs the benchmark across its sweep under Default,
// Drop 1/4 and Drop 1/2 and returns the three fronts. This is the
// expensive profiling step behind Figures 2 and 4; reuse the result.
// The (scenario, input) cells are independent deterministic executions,
// so they fan out on the parallel pool (bounded by parallel.Workers(),
// which the -j flag controls) with results collected by cell index —
// the model is identical to a sequential scan.
func MeasureFronts(b rms.Benchmark, seed int64) (*QualityModel, error) {
	return MeasureFrontsCtx(context.Background(), b, seed)
}

// MeasureFrontsCtx is MeasureFronts with ctx's stages as parents: the
// whole measurement is a core.front stage, the reference execution a
// core.front.reference stage, and every (scenario, input) profiling
// cell a core.front.cell stage under the pool worker that ran it.
func MeasureFrontsCtx(ctx context.Context, b rms.Benchmark, seed int64) (*QualityModel, error) {
	st := stFront.Begin(ctx).Str("bench", b.Name())
	defer st.End()
	ctx = st.Context(ctx)

	rst := stFrontRef.Begin(ctx)
	ref, err := rms.ReferenceCtx(ctx, b, seed)
	rst.End()
	if err != nil {
		return nil, fmt.Errorf("core: reference run: %w", err)
	}
	scenarios := []struct {
		name string
		plan fault.Plan
	}{
		{"default", fault.Plan{}},
		{"drop-1/4", fault.DropQuarter()},
		{"drop-1/2", fault.DropHalf()},
	}
	sweep := b.Sweep()
	qualities, err := parallel.MapCtx(ctx, len(scenarios)*len(sweep), func(wctx context.Context, i int) (float64, error) {
		sc, in := scenarios[i/len(sweep)], sweep[i%len(sweep)]
		defer stCell.Begin(wctx).Str("scenario", sc.name).End()
		res, err := b.Run(in, b.DefaultThreads(), sc.plan, seed)
		if err != nil {
			return 0, fmt.Errorf("core: %s %s at input %g: %w", b.Name(), sc.name, in, err)
		}
		q, err := b.Quality(res, ref)
		if err == nil {
			telemetry.NewEvent("quality.scored").
				Str("bench", b.Name()).
				Str("scenario", sc.name).
				Float("input", in).
				Float("quality", q).
				Emit()
		}
		return q, err
	})
	if err != nil {
		return nil, err
	}
	telemetry.NewEvent("front.measured").
		Str("bench", b.Name()).
		Int("cells", int64(len(qualities))).
		Emit()

	qm := &QualityModel{Benchmark: b.Name()}
	for s, sc := range scenarios {
		front := &QualityFront{Benchmark: b.Name(), Scenario: sc.name}
		for p, in := range sweep {
			front.Inputs = append(front.Inputs, in)
			front.ProblemSizes = append(front.ProblemSizes, b.ProblemSize(in))
			front.Quality = append(front.Quality, qualities[s*len(sweep)+p])
		}
		ensureAscending(front)
		switch sc.name {
		case "default":
			qm.Default = front
		case "drop-1/4":
			qm.Quarter = front
		case "drop-1/2":
			qm.Half = front
		}
	}
	return qm, nil
}

func ensureAscending(f *QualityFront) {
	idx := make([]int, len(f.ProblemSizes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return f.ProblemSizes[idx[a]] < f.ProblemSizes[idx[b]] })
	in := make([]float64, len(idx))
	ps := make([]float64, len(idx))
	q := make([]float64, len(idx))
	for k, i := range idx {
		in[k], ps[k], q[k] = f.Inputs[i], f.ProblemSizes[i], f.Quality[i]
	}
	f.Inputs, f.ProblemSizes, f.Quality = in, ps, q
}

// SpeculativeFront picks the error-scenario front Speculative modes pay
// for: Drop 1/4 normally, but the more conservative Drop 1/2 for
// benchmarks whose quality degradation under Drop 1/4 is negligible
// (Section 6.3). Negligible means losing less than negligibleLoss of
// the default-scenario quality at the default problem size.
func (qm *QualityModel) SpeculativeFront() *QualityFront {
	const negligibleLoss = 0.05
	qDef := qm.Default.At(1)
	if qDef <= 0 {
		return qm.Quarter
	}
	if qm.Quarter.At(1) >= (1-negligibleLoss)*qDef {
		return qm.Half
	}
	return qm.Quarter
}

// RelativeQuality returns QNTV/QSTV for an operating point: the quality
// of the scenario front at the operating problem size, normalized by
// the error-free quality at the default problem size (the STV
// baseline's quality).
func (qm *QualityModel) RelativeQuality(front *QualityFront, problemSize float64) float64 {
	base := qm.Default.At(1)
	if base == 0 {
		return 0
	}
	return front.At(problemSize) / base
}
