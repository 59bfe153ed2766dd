package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/rms"
	cannealpkg "repro/internal/rms/canneal"
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
// against the paper's linear/complex classification.
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
		psExp, qR2, err := measureDependence(ctx, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Name(), b.Domain(), b.AccordionInput(), b.QualityMetricName(),
			b.DependencePS().String(), f2(psExp), b.DependenceQ().String(), f2(qR2))
	}
	t.Notes = append(t.Notes,
		"PS exponent: power-law fit of problem size vs input (1.0 = linear)",
		"Q slope r2: goodness of a linear quality-vs-input fit (near 1 = linear)")
	return []*Table{t}, nil
}

// measureDependence fits problem size ~ input^p and quality ~ input.
func measureDependence(ctx context.Context, b rms.Benchmark, seed int64) (psExp, qLinearR2 float64, err error) {
	sweep := b.Sweep()
	ref, err := rms.ReferenceCtx(ctx, b, seed)
	if err != nil {
		return 0, 0, err
	}
	var ps, qs []float64
	for _, in := range sweep {
		ps = append(ps, b.ProblemSize(in))
		res, err := rms.Run(ctx, b, in, b.DefaultThreads(), fault.Plan{}, seed)
		if err != nil {
			return 0, 0, err
		}
		q, err := rms.Quality(ctx, b, res, ref)
		if err != nil {
			return 0, 0, err
		}
		qs = append(qs, q)
	}
	_, psExp, _ = mathx.PowerFit(sweep, ps)
	_, _, qLinearR2 = mathx.LinFit(sweep, qs)
	return psExp, qLinearR2, nil
}

// Corruption regenerates the Section 6.2/6.3 validation study on
// canneal: end-result corruption modes versus Drop, including the
// decision-inversion case the paper quantifies (77%/69% quality vs
// Drop's 98%/96%).
func Corruption(ctx context.Context, cfg Config) ([]*Table, error) {
	b, err := cannealpkg.New()
	if err != nil {
		return nil, err
	}
	ref, err := rms.ReferenceCtx(ctx, b, cfg.Seed)
	if err != nil {
		return nil, err
	}
	nominal, err := rms.Run(ctx, b, b.DefaultInput(), b.DefaultThreads(), fault.Plan{}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	qNom, err := rms.Quality(ctx, b, nominal, ref)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "corruption",
		Title:   "canneal: quality vs nominal under error modes (1/4 and 1/2 of threads infected)",
		Columns: []string{"mode", "Q(1/4)/Qnom", "Q(1/2)/Qnom"},
	}
	modes := append([]fault.Mode{fault.Drop}, fault.CorruptionModes()...)
	modes = append(modes, fault.Invert)
	var dropQ, invertQ [2]float64
	for _, m := range modes {
		var rel [2]float64
		for i, den := range []int{4, 2} {
			plan, err := fault.NewPlan(m, 1, den, cfg.Seed)
			if err != nil {
				return nil, err
			}
			res, err := rms.Run(ctx, b, b.DefaultInput(), b.DefaultThreads(), plan, cfg.Seed)
			if err != nil {
				return nil, err
			}
			q, err := rms.Quality(ctx, b, res, ref)
			if err != nil {
				return nil, err
			}
			rel[i] = q / qNom
		}
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
