package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/rms"
)

// paretoTable renders one benchmark's Figure 6/7 row: the Safe and
// Speculative iso-execution-time fronts with the four normalized
// y-axes (MIPS/W, power, problem size, quality) against NNTV/NSTV.
func paretoTable(ctx context.Context, id string, b rms.Benchmark, cfg Config) (*Table, error) {
	rep, err := RepresentativeChip(ctx, cfg)
	if err != nil {
		return nil, err
	}
	pm := power.NewModel(rep)
	qm, err := MeasuredFronts(ctx, b, cfg.Seed)
	if err != nil {
		return nil, err
	}
	solver, err := core.NewSolver(rep, pm, b, qm)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("%s: iso-execution-time fronts (NSTV=%d, fSTV=%.2f GHz)", b.Name(), solver.Baseline().N, solver.Baseline().Freq),
		Columns: []string{"flavor", "mode", "prob.size", "N", "f(GHz)", "Perr",
			"N/Nstv", "MIPS/W", "power", "quality", "limit"},
	}
	for _, flavor := range []core.Flavor{core.Safe, core.Speculative} {
		front, err := solver.FrontCtx(ctx, flavor)
		if err != nil {
			return nil, err
		}
		for _, op := range front {
			limit := op.Limit
			if limit == "" {
				limit = "-"
			}
			t.AddRow(flavor.String(), op.Mode.String(), f3(op.ProblemSize),
				d(op.N), f3(op.Freq), e1(op.Perr), f2(op.RelN),
				f2(op.RelMIPSPerWatt), f2(op.RelPower), f2(op.RelQuality), limit)
		}
	}
	t.Notes = append(t.Notes,
		"MIPS/W, power, quality normalized to the STV baseline; Still sits at prob.size=1 where Compress meets Expand")
	return t, nil
}

// Fig6 regenerates Figure 6: iso-execution-time pareto fronts for
// canneal, ferret, bodytrack and x264.
func Fig6(ctx context.Context, cfg Config) ([]*Table, error) {
	var out []*Table
	for _, name := range []string{"canneal", "ferret", "bodytrack", "x264"} {
		b, err := BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		t, err := paretoTable(ctx, "fig6", b, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig7 regenerates Figure 7: the same fronts for hotspot and srad.
func Fig7(ctx context.Context, cfg Config) ([]*Table, error) {
	var out []*Table
	for _, name := range []string{"hotspot", "srad"} {
		b, err := BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		t, err := paretoTable(ctx, "fig7", b, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Headline regenerates the paper's summary claims: the energy-
// efficiency gain at iso-execution time per benchmark (Section 9's
// 1.61-1.87x) and the speculative frequency gain (Section 6.3's 8-41%).
func Headline(ctx context.Context, cfg Config) ([]*Table, error) {
	rep, err := RepresentativeChip(ctx, cfg)
	if err != nil {
		return nil, err
	}
	pm := power.NewModel(rep)
	all, err := AllBenchmarks()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "headline",
		Title: "iso-execution-time energy efficiency at the Still point",
		Columns: []string{"benchmark", "safe MIPS/W", "spec MIPS/W",
			"safe f", "spec f", "f gain(%)", "spec quality"},
	}
	minGain, maxGain := 1e9, -1e9
	minEff, maxEff := 1e9, -1e9
	for _, b := range all {
		qm, err := MeasuredFronts(ctx, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		solver, err := core.NewSolver(rep, pm, b, qm)
		if err != nil {
			return nil, err
		}
		safe, err := solver.Solve(b.DefaultInput(), core.Safe)
		if err != nil {
			return nil, err
		}
		spec, err := solver.Solve(b.DefaultInput(), core.Speculative)
		if err != nil {
			return nil, err
		}
		gain := (spec.Freq/safe.Freq - 1) * 100
		t.AddRow(b.Name(), f2(safe.RelMIPSPerWatt), f2(spec.RelMIPSPerWatt),
			f3(safe.Freq), f3(spec.Freq), f1(gain), f2(spec.RelQuality))
		if gain < minGain {
			minGain = gain
		}
		if gain > maxGain {
			maxGain = gain
		}
		if spec.RelMIPSPerWatt < minEff {
			minEff = spec.RelMIPSPerWatt
		}
		if spec.RelMIPSPerWatt > maxEff {
			maxEff = spec.RelMIPSPerWatt
		}
	}
	// Section 6.3's "8-41% f increase across chip": per-core gain from
	// tolerating a realistic task-level error rate (~1e-8/cycle) over
	// error-free operation.
	tp := rep.Cfg.Tech
	tab := rep.CoreTable(rep.VddNTV())
	zs, fs := []float64{tp.PerrQuantile(1e-8), tp.PerrQuantile(1e-16)}, make([]float64, 2)
	minCore, maxCore := 1e9, -1e9
	for i := range rep.Cores {
		tab.FreqsAt(i, zs, fs)
		g := fs[0]/fs[1] - 1
		if g < minCore {
			minCore = g
		}
		if g > maxCore {
			maxCore = g
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("speculative MIPS/W gain spans %.2f-%.2fx (paper: 1.61-1.87x)", minEff, maxEff),
		fmt.Sprintf("Still-point speculative f gain spans %.1f-%.1f%%", minGain, maxGain),
		fmt.Sprintf("per-core speculative f increase spans %.0f-%.0f%% across the chip (paper: 8-41%%)", minCore*100, maxCore*100))
	return []*Table{t}, nil
}
