package experiments

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/mathx"
)

// Fig5a regenerates Figure 5a: the histogram of per-cluster VddMIN for
// the representative chip, plus the population-level range.
func Fig5a(ctx context.Context, cfg Config) ([]*Table, error) {
	f, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rep := f.SampleCtx(ctx, cfg.ChipSeed)
	vmins := rep.ClusterVddMINs()
	counts, edges := mathx.Histogram(vmins, 0.44, 0.60, 8)
	t := &Table{
		ID:      "fig5a",
		Title:   "per-cluster VddMIN histogram (representative chip)",
		Columns: []string{"bin(V)", "clusters"},
	}
	for i, c := range counts {
		t.AddRow(fmt.Sprintf("%.3f-%.3f", edges[i], edges[i+1]), d(c))
	}
	lo, hi := mathx.MinMax(vmins)
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-cluster VddMIN range %.3f-%.3fV (paper: 0.46-0.58V); chip-wide VddNTV=%.3fV", lo, hi, rep.VddNTV()))

	// Population statistics across the Monte-Carlo chips.
	pop, err := f.PopulationCtx(ctx, cfg.ChipSeed, cfg.Chips)
	if err != nil {
		return nil, err
	}
	var all []float64
	for _, ch := range pop {
		all = append(all, ch.ClusterVddMINs()...)
	}
	plo, phi := mathx.MinMax(all)
	t.Notes = append(t.Notes,
		fmt.Sprintf("across %d chips: cluster VddMIN spans %.3f-%.3fV", cfg.Chips, plo, phi))
	return []*Table{t}, nil
}

// Fig5b regenerates Figure 5b: per-cycle timing error rate versus
// frequency for the slowest core of each cluster at VddNTV. The table
// reports, per cluster, the frequencies at the landmark error rates;
// together they trace the 36 curves of the figure.
func Fig5b(ctx context.Context, cfg Config) ([]*Table, error) {
	rep, err := RepresentativeChip(ctx, cfg)
	if err != nil {
		return nil, err
	}
	vdd := rep.VddNTV()
	t := &Table{
		ID:      "fig5b",
		Title:   fmt.Sprintf("slowest-core f at landmark error rates, VddNTV=%.3fV", vdd),
		Columns: []string{"cluster", "f@1e-16", "f@1e-12", "f@1e-8", "f@1e-4", "fmax(Perr~1)"},
	}
	var zs []float64
	for _, perr := range []float64{1e-16, 1e-12, 1e-8, 1e-4} {
		zs = append(zs, rep.Cfg.Tech.PerrQuantile(perr))
	}
	fs := make([]float64, len(zs))
	var safe []float64
	below := 0
	for c := 0; c < rep.Cfg.Clusters; c++ {
		s := rep.ClusterSlowestCore(c, vdd)
		rep.CoreFreqsAt(s, vdd, zs, fs)
		f12 := fs[1]
		t.AddRow(d(c), f3(fs[0]), f3(f12), f3(fs[2]), f3(fs[3]), f3(rep.CoreFmax(s, vdd)))
		safe = append(safe, f12)
		if f12 < rep.Cfg.Tech.FNomNTV {
			below++
		}
	}
	lo, hi := mathx.MinMax(safe)
	t.Notes = append(t.Notes,
		fmt.Sprintf("slowest-core f@Perr in [1e-16,1e-12] spans %.2f-%.2f GHz (paper: 0.14-0.72 of the 1 GHz fNOM)", lo, hi),
		fmt.Sprintf("%d of %d clusters cannot reach fNOM error-free (paper: the majority)", below, rep.Cfg.Clusters))
	return []*Table{t}, nil
}
