// Command paretoscan extracts the iso-execution-time pareto front for
// one benchmark: for every problem size in the benchmark's sweep it
// reports the (N, f) pair that matches the STV execution time and the
// resulting energy efficiency, power and quality — one panel of
// Figure 6/7 at a time, with a selectable mode flavor and core-
// selection policy.
//
// Usage:
//
//	paretoscan -bench canneal [-flavor safe|spec] [-policy efficient|fastest|sequential]
//	           [-seed N] [-chip N] [-qfloor Q] [-telemetry text|json]
//	           [-atlas DIR]
//
// -telemetry dumps the telemetry report (fault counts included) to
// stderr; -atlas DIR writes the scanned chip's spatial export set (no
// fault overlay).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atlas"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/telemetry"
)

func main() {
	var (
		benchName = flag.String("bench", "canneal", "benchmark: canneal ferret bodytrack x264 hotspot srad")
		flavorStr = flag.String("flavor", "safe", "mode flavor: safe or spec")
		policyStr = flag.String("policy", "efficient", "core selection: efficient, fastest, sequential")
		seed      = flag.Int64("seed", 1, "workload seed")
		chipSeed  = flag.Int64("chip", 2014, "chip sample seed")
		qfloor    = flag.Float64("qfloor", 0, "minimum relative quality (0 disables)")
		clusterG  = flag.Bool("cluster", false, "engage whole clusters (the paper's Section 5.1 granularity)")
		obs       = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "paretoscan: %v\n", err)
		os.Exit(1)
	}
	finishObs, err := obs.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := finishObs(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "paretoscan: %v\n", err)
		}
	}()

	var flavor core.Flavor
	switch *flavorStr {
	case "safe":
		flavor = core.Safe
	case "spec", "speculative":
		flavor = core.Speculative
	default:
		fail(fmt.Errorf("unknown flavor %q", *flavorStr))
	}
	var policy chip.SelectPolicy
	switch *policyStr {
	case "efficient":
		policy = chip.SelectEfficient
	case "fastest":
		policy = chip.SelectFastest
	case "sequential":
		policy = chip.SelectSequential
	default:
		fail(fmt.Errorf("unknown policy %q", *policyStr))
	}

	b, err := experiments.BenchmarkByName(*benchName)
	if err != nil {
		fail(err)
	}
	ch, err := chip.New(chip.DefaultConfig(), *chipSeed)
	if err != nil {
		fail(err)
	}
	if obs.Atlas != "" {
		if _, err := atlas.Build(ch).WriteDir(obs.Atlas); err != nil {
			fail(err)
		}
	}
	pm := power.NewModel(ch)
	qm, err := core.MeasureFronts(b, *seed)
	if err != nil {
		fail(err)
	}
	solver, err := core.NewSolver(ch, pm, b, qm)
	if err != nil {
		fail(err)
	}
	solver.SetPolicy(policy)
	solver.SetClusterGranular(*clusterG)
	solver.QualityFloor = *qfloor

	bl := solver.Baseline()
	fmt.Printf("%s %s front on chip %d (policy %s): NSTV=%d fSTV=%.2f GHz PowerSTV=%.1f W VddNTV=%.3f V\n",
		b.Name(), flavor, *chipSeed, policy, bl.N, bl.Freq, bl.Power, ch.VddNTV())
	fmt.Printf("%9s %9s %5s %7s %9s %8s %8s %8s %8s %7s\n",
		"prob.size", "mode", "N", "f(GHz)", "Perr", "N/Nstv", "MIPS/W", "power", "quality", "limit")
	front, err := solver.Front(flavor)
	if err != nil {
		fail(err)
	}
	for _, op := range front {
		limit := op.Limit
		if limit == "" {
			limit = "-"
		}
		fmt.Printf("%9.3f %9s %5d %7.3f %9.1e %8.2f %8.2f %8.2f %8.2f %7s\n",
			op.ProblemSize, op.Mode, op.N, op.Freq, op.Perr,
			op.RelN, op.RelMIPSPerWatt, op.RelPower, op.RelQuality, limit)
	}
}
