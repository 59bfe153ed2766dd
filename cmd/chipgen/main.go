// Command chipgen samples variation-afflicted chips and reports their
// voltage and frequency landscape: per-cluster VddMIN, the chip-wide
// VddNTV, and the distribution of safe core frequencies — the raw
// material of Figures 5a and 5b.
//
// Usage:
//
//	chipgen [-seed N] [-n N] [-v] [-telemetry text|json] [-atlas DIR]
//
// With -n > 1 a population summary is printed; -v additionally dumps
// per-cluster detail for the first chip. -telemetry dumps the
// telemetry report to stderr; -atlas DIR writes the first chip's
// spatial export set (JSON, CSV, SVG heatmaps — no fault overlay,
// chipgen runs no workload).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atlas"
	"repro/internal/chip"
	"repro/internal/mathx"
	"repro/internal/telemetry"
	"repro/internal/variation"
	"repro/internal/workload"
)

// parseGrid parses a WxH field resolution. There is no upper size cap:
// grids above variation.ExactSampleCap points go through the
// O(n log n) circulant sampler.
func parseGrid(s string) (w, h int, err error) {
	if _, err := fmt.Sscanf(s, "%dx%d", &w, &h); err != nil {
		return 0, 0, fmt.Errorf("bad -fieldgrid %q: want WxH, e.g. 48x48", s)
	}
	if w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("bad -fieldgrid %q: dimensions must be positive", s)
	}
	return w, h, nil
}

// writeField renders one Vth variation field realization as a PGM.
func writeField(path string, w, h int, seed int64) error {
	grid, err := variation.SampleField(w, h, variation.DefaultVth(), mathx.NewRNG(seed))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WritePGM(f, grid, -0.35, 0.35); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		seed      = flag.Int64("seed", 2014, "population seed")
		n         = flag.Int("n", 1, "number of chips to sample")
		verbose   = flag.Bool("v", false, "per-cluster detail for the first chip")
		saveFile  = flag.String("save", "", "write the first chip as JSON to this path")
		loadFile  = flag.String("load", "", "analyze a previously saved chip instead of sampling")
		fieldPGM  = flag.String("field", "", "render one Vth variation field to this PGM path")
		fieldGrid = flag.String("fieldgrid", "48x48", "field resolution as WxH; grids above 4096 points use the O(n log n) circulant sampler")
		obs       = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "chipgen: %v\n", err)
		os.Exit(1)
	}
	finishObs, err := obs.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := finishObs(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "chipgen: %v\n", err)
		}
	}()
	var pop []*chip.Chip
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			fail(err)
		}
		ch, err := chip.Load(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		pop = []*chip.Chip{ch}
	} else {
		factory, err := chip.NewFactory(chip.DefaultConfig())
		if err != nil {
			fail(err)
		}
		pop = factory.Population(*seed, *n)
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fail(err)
		}
		if err := pop[0].Save(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("saved chip (seed %d) to %s\n", pop[0].Seed, *saveFile)
	}

	if obs.Atlas != "" {
		paths, err := atlas.Build(pop[0]).WriteDir(obs.Atlas)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d atlas files (chip seed %d) to %s\n", len(paths), pop[0].Seed, obs.Atlas)
	}

	if *fieldPGM != "" {
		fw, fh, err := parseGrid(*fieldGrid)
		if err != nil {
			fail(err)
		}
		if err := writeField(*fieldPGM, fw, fh, *seed); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %dx%d Vth field (seed %d) to %s\n", fw, fh, *seed, *fieldPGM)
	}

	var ntvs, allVmin []float64
	for _, ch := range pop {
		ntvs = append(ntvs, ch.VddNTV())
		allVmin = append(allVmin, ch.ClusterVddMINs()...)
	}
	lo, hi := mathx.MinMax(allVmin)
	nlo, nhi := mathx.MinMax(ntvs)
	fmt.Printf("chips: %d  cores/chip: %d  clusters/chip: %d\n",
		len(pop), len(pop[0].Cores), pop[0].Cfg.Clusters)
	fmt.Printf("cluster VddMIN: %.3f-%.3f V (mean %.3f)\n", lo, hi, mathx.Mean(allVmin))
	fmt.Printf("chip VddNTV:    %.3f-%.3f V (mean %.3f)\n", nlo, nhi, mathx.Mean(ntvs))

	first := pop[0]
	vdd := first.VddNTV()
	var safe []float64
	for i := range first.Cores {
		safe = append(safe, first.CoreSafeFreq(i, vdd))
	}
	fmt.Printf("chip[0] @ VddNTV=%.3f V: safe core f p5/p50/p95 = %.3f/%.3f/%.3f GHz\n",
		vdd, mathx.Percentile(safe, 5), mathx.Percentile(safe, 50), mathx.Percentile(safe, 95))

	if *verbose {
		fmt.Printf("\n%8s %10s %12s %12s\n", "cluster", "VddMIN(V)", "slow f(GHz)", "fast f(GHz)")
		for c := 0; c < first.Cfg.Clusters; c++ {
			loC, hiC := first.ClusterCores(c)
			fLo, fHi := 1e9, 0.0
			for i := loC; i < hiC; i++ {
				f := first.CoreSafeFreq(i, vdd)
				if f < fLo {
					fLo = f
				}
				if f > fHi {
					fHi = f
				}
			}
			fmt.Printf("%8d %10.3f %12.3f %12.3f\n", c, first.ClusterVddMIN(c), fLo, fHi)
		}
	}
}
