package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/rms"
	"repro/internal/sim"
)

// Table2 reports the reproduction's realization of the paper's Table 2
// system parameters.
func Table2(ctx context.Context, cfg Config) ([]*Table, error) {
	c := chip.DefaultConfig()
	rep, err := RepresentativeChip(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tor := sim.DefaultTorus()
	t := &Table{
		ID:      "table2",
		Title:   "technology and architecture parameters",
		Columns: []string{"parameter", "value", "paper"},
	}
	t.AddRow("technology node", "11nm (analytic models)", "11nm")
	t.AddRow("cores", d(c.NumCores()), "288")
	t.AddRow("clusters", d(c.Clusters), "36 (8 cores/cluster)")
	t.AddRow("power budget PMAX", f1(c.PowerBudget)+" W", "100 W")
	t.AddRow("VddNOM", f2(c.Tech.VddNomNTV)+" V", "0.55 V")
	t.AddRow("VthNOM", f2(c.Tech.VthNom)+" V", "0.33 V")
	t.AddRow("fNOM", f2(c.Tech.FNomNTV)+" GHz", "1.0 GHz")
	t.AddRow("STV equivalent", fmt.Sprintf("%.2f V / %.2f GHz", c.Tech.VddNomSTV, c.Tech.FSTV()), "1 V / 3.3 GHz")
	t.AddRow("Vth variation", fmt.Sprintf("sigma/mu=%.0f%%, phi=%.1f", c.Vth.SigmaMu*100, c.Vth.CorrRange), "15%, phi=0.1")
	t.AddRow("Leff variation", fmt.Sprintf("sigma/mu=%.1f%%", c.Leff.SigmaMu*100), "7.5%")
	t.AddRow("core-private memory", fmt.Sprintf("%d KB", c.CoreMemBits/8/1024), "64 KB")
	t.AddRow("cluster memory", fmt.Sprintf("%d MB", c.ClusterMemBits/8/1024/1024), "2 MB")
	t.AddRow("network", fmt.Sprintf("bus + %dx%d 2D torus @ %.1f GHz", tor.Side, tor.Side, tor.NetFreq), "bus + 2D torus @ 0.8 GHz")
	t.AddRow("representative VddNTV", f3(rep.VddNTV())+" V", "max per-cluster VddMIN")
	return []*Table{t}, nil
}

// Table3 reports, per benchmark, the Accordion input, quality metric,
// and the measured problem-size and quality dependence exponents
// against the paper's linear/complex classification. The exponents are
// fitted over the Default front of Figures 2 and 4: every kernel's
// problem size ascends over its sweep, so the front keeps sweep order.
func Table3(ctx context.Context, cfg Config) ([]*Table, error) {
	all, err := AllBenchmarks()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table3",
		Title: "benchmark characteristics and measured input dependencies",
		Columns: []string{"benchmark", "domain", "accordion input", "quality metric",
			"PS dep (paper)", "PS exponent", "Q dep (paper)", "Q slope r2"},
	}
	for _, b := range all {
		qm, err := MeasuredFronts(ctx, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		f := qm.Default
		_, psExp, _ := mathx.PowerFit(f.Inputs, f.ProblemSizes)
		_, _, qR2 := mathx.LinFit(f.Inputs, f.Quality)
		t.AddRow(b.Name(), b.Domain(), b.AccordionInput(), b.QualityMetricName(),
			b.DependencePS().String(), f2(psExp), b.DependenceQ().String(), f2(qR2))
	}
	t.Notes = append(t.Notes,
		"PS exponent: power-law fit of problem size vs input (1.0 = linear)",
		"Q slope r2: goodness of a linear quality-vs-input fit (near 1 = linear)")
	return []*Table{t}, nil
}

// Corruption regenerates the Section 6.2/6.3 validation study on
// canneal: end-result corruption modes versus Drop, including the
// decision-inversion case the paper quantifies (77%/69% quality vs
// Drop's 98%/96%).
func Corruption(ctx context.Context, cfg Config) ([]*Table, error) {
	b, err := BenchmarkByName("canneal")
	if err != nil {
		return nil, err
	}
	modes := append([]fault.Mode{fault.Drop}, fault.CorruptionModes()...)
	modes = append(modes, fault.Invert)
	// Plan 0 is the nominal run; plans 2k+1 and 2k+2 infect 1/4 and
	// 1/2 of the tasks under modes[k].
	plans := []fault.Plan{{}}
	for _, m := range modes {
		for _, den := range []int{4, 2} {
			plan, err := fault.NewPlan(m, 1, den, cfg.Seed)
			if err != nil {
				return nil, err
			}
			plans = append(plans, plan)
		}
	}
	qs, err := defaultQualities(ctx, []rms.Benchmark{b}, plans, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "corruption",
		Title:   "canneal: quality vs nominal under error modes (1/4 and 1/2 of threads infected)",
		Columns: []string{"mode", "Q(1/4)/Qnom", "Q(1/2)/Qnom"},
	}
	var dropQ, invertQ [2]float64
	for k, m := range modes {
		rel := [2]float64{qs[2*k+1] / qs[0], qs[2*k+2] / qs[0]}
		if m == fault.Drop {
			dropQ = rel
		}
		if m == fault.Invert {
			invertQ = rel
		}
		t.AddRow(m.String(), f3(rel[0]), f3(rel[1]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Drop: %.0f%%/%.0f%% of nominal (paper 98%%/96%%); Invert: %.0f%%/%.0f%% (paper 77%%/69%%)",
			dropQ[0]*100, dropQ[1]*100, invertQ[0]*100, invertQ[1]*100))
	return []*Table{t}, nil
}

// defaultQualities scores each kernel's run at its default input and
// threads under every plan against the kernel's reference, kernel-major
// by index. The runs fan out on the pool and come from the rms run
// memo, so runners that share a run execute it once.
func defaultQualities(ctx context.Context, benches []rms.Benchmark, plans []fault.Plan, seed int64) ([]float64, error) {
	refs := make([]rms.Result, len(benches))
	for k, b := range benches {
		ref, err := rms.ReferenceCtx(ctx, b, seed)
		if err != nil {
			return nil, err
		}
		refs[k] = ref
	}
	return parallel.Map(ctx, len(benches)*len(plans), func(wctx context.Context, i int) (float64, error) {
		k := i / len(plans)
		b := benches[k]
		run, err := rms.RunMemo(wctx, b, b.DefaultInput(), b.DefaultThreads(), plans[i%len(plans)], seed)
		if err != nil {
			return 0, err
		}
		return run.Score(wctx, b, refs[k])
	})
}

// Baselines compares Accordion's substrate against the related-work
// mitigation schemes of Section 8 at a fixed engaged-core count.
func Baselines(ctx context.Context, cfg Config) ([]*Table, error) {
	rep, err := RepresentativeChip(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := baseline.NewSuite(rep)
	const n = 64
	stv := s.STV()
	naive, err := s.NaiveNTC(n)
	if err != nil {
		return nil, err
	}
	boost, err := s.Booster(n, rep.VddNTV()+0.08)
	if err != nil {
		return nil, err
	}
	es, err := s.EnergySmart(n)
	if err != nil {
		return nil, err
	}
	pc, err := s.PerClusterVdd(n, 0.01)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "baselines",
		Title:   fmt.Sprintf("variation-mitigation baselines at N=%d (NTV schemes) vs STV", n),
		Columns: []string{"scheme", "N", "eff f(GHz)", "power(W)", "GHz/W", "vs naive"},
	}
	for _, p := range []baseline.Point{stv, naive, boost, es, pc} {
		ratio := 1.0
		if naive.EffGHzPerWatt() > 0 {
			ratio = p.EffGHzPerWatt() / naive.EffGHzPerWatt()
		}
		t.AddRow(p.Name, d(p.N), f3(p.Freq), f1(p.Power), f3(p.EffGHzPerWatt()), f2(ratio))
	}
	t.Notes = append(t.Notes,
		"naive NTC clocks every core at the chip's slowest; Booster equalizes f via a second rail; EnergySmart schedules per-cluster f domains",
		"per-cluster-vdd undervolts each cluster toward its own VddMIN: a negative result — safe frequency falls faster than V^2 power, validating the chip-wide VddNTV choice of Section 6.1",
		"Accordion additionally trades problem size against errors — see fig6/fig7 for its operating points")
	if math.IsInf(naive.Freq, 0) {
		return nil, fmt.Errorf("experiments: degenerate naive baseline")
	}
	return []*Table{t}, nil
}
