// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6) from the reproduction's own models and
// kernels. Each experiment returns a Table whose rows correspond to the
// series the paper plots; cmd/accordion renders them as text and
// bench_test.go regenerates them under `go test -bench`.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rms"
	"repro/internal/rms/bodytrack"
	"repro/internal/rms/btcmine"
	"repro/internal/rms/canneal"
	"repro/internal/rms/ferret"
	"repro/internal/rms/hotspot"
	"repro/internal/rms/srad"
	"repro/internal/rms/xh264"
	"repro/internal/variation"
)

// Config parameterizes an experiment run.
type Config struct {
	Seed     int64 // master seed for workloads and fault streams
	ChipSeed int64 // seed of the representative chip sample
	Chips    int   // population size for population-level statistics
}

// DefaultConfig returns the configuration all recorded results use.
func DefaultConfig() Config {
	return Config{Seed: 1, ChipSeed: 2014, Chips: 20}
}

// Table is one regenerated artifact: the rows behind a figure's series
// or a table of the paper.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%*s", w, c)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// kernels memoizes the constructed benchmark sets. Kernels are
// stateless after construction (MeasureFronts already shares one
// instance across concurrent Run calls), but constructing them is not
// free — canneal's netlist and ferret's database dominate. Every
// runner takes its kernels from here, so one instance per kernel
// serves them all. Each call still returns a fresh slice so callers
// may reorder or truncate it.
var kernels = parallel.Cache[string, []rms.Benchmark]{Name: "experiments.Kernels"}

func cachedKernels(set string, build func() ([]rms.Benchmark, error)) ([]rms.Benchmark, error) {
	all, err := kernels.Do(set, build)
	if err != nil {
		return nil, err
	}
	out := make([]rms.Benchmark, len(all))
	copy(out, all)
	return out, nil
}

// AllBenchmarks constructs the six RMS kernels in Table 3 order.
func AllBenchmarks() ([]rms.Benchmark, error) {
	return cachedKernels("table3", func() ([]rms.Benchmark, error) {
		cb, err := canneal.New()
		if err != nil {
			return nil, err
		}
		fb, err := ferret.New()
		if err != nil {
			return nil, err
		}
		bb, err := bodytrack.New()
		if err != nil {
			return nil, err
		}
		return []rms.Benchmark{cb, fb, bb, xh264.New(), hotspot.New(), srad.New()}, nil
	})
}

// AllKernels returns every kernel in the repository: the Table 3 six
// plus the Section 7 strict weak-scaling miner.
func AllKernels() ([]rms.Benchmark, error) {
	return cachedKernels("all", func() ([]rms.Benchmark, error) {
		all, err := AllBenchmarks()
		if err != nil {
			return nil, err
		}
		return append(all, btcmine.New()), nil
	})
}

// BenchmarkByName returns one kernel (including btcmine).
func BenchmarkByName(name string) (rms.Benchmark, error) {
	all, err := AllKernels()
	if err != nil {
		return nil, err
	}
	for _, b := range all {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
}

// repChips shares one sampled chip per seed across all runners: a Chip
// is immutable after construction, so concurrent experiments read it
// freely, and no runner pays the factory's covariance factorization
// twice. It keeps the repChipsMax most recently inserted seeds, so a
// long-running service asked for ever new chip seeds holds a bounded
// number of chips.
var repChips = parallel.Cache[int64, *chip.Chip]{Name: "experiments.RepresentativeChip", Max: repChipsMax}

// repChipsMax bounds repChips. One run asks for a single chip seed; the
// bound leaves room for the seeds of concurrently running service jobs,
// so each job's runners keep sharing their chip.
const repChipsMax = 8

// RepresentativeChip returns the chip sample all single-chip
// experiments use. The sample is memoized per ChipSeed and shared
// between concurrently running experiments. The context is unused: the
// sample is neither cancelled nor traced as a stage of the caller.
func RepresentativeChip(_ context.Context, cfg Config) (*chip.Chip, error) {
	return repChips.Do(cfg.ChipSeed, func() (*chip.Chip, error) {
		return chip.New(chip.DefaultConfig(), cfg.ChipSeed)
	})
}

// frontKey identifies one benchmark profiling run.
type frontKey struct {
	bench string
	seed  int64
}

// fronts shares measured quality models across runners; a QualityModel
// is read-only after MeasureFronts returns.
var fronts = parallel.Cache[frontKey, *core.QualityModel]{Name: "experiments.MeasuredFronts", Max: frontsMax}

// frontsMax bounds fronts at repChipsMax workload seeds' fronts of the
// seven kernels: a run measures each kernel once at its one seed, so
// no run evicts its own fronts, and a service asked for ever new seeds
// holds a bounded number.
const frontsMax = repChipsMax * 7

// MeasuredFronts returns core.MeasureFronts(b, seed), memoized per
// (benchmark, seed): the profiling sweep behind Figures 2 and 4 is the
// single most expensive step experiments share, and concurrent runners
// wait for one in-flight measurement instead of duplicating it. The
// ctx of whichever caller performs the actual measurement carries its
// trace span, so the core.front spans attribute to that runner;
// memo-hit callers pay nothing and record nothing.
func MeasuredFronts(ctx context.Context, b rms.Benchmark, seed int64) (*core.QualityModel, error) {
	return fronts.Do(frontKey{b.Name(), seed}, func() (*core.QualityModel, error) {
		return core.MeasureFrontsCtx(ctx, b, seed)
	})
}

// cacheGate serializes ResetCaches against in-flight experiment runs.
// Each cache's own Reset is individually safe, but the compound reset
// is not atomic on its own: a concurrent run could observe some layers
// emptied and others still warm, repopulating a mixed generation.
// RunMany and RunAttribution hold the read side for their whole
// duration, so a reset is atomic with respect to runs: it waits for
// every in-flight run to finish, empties all layers, and only then
// lets new runs repopulate them.
var cacheGate sync.RWMutex

// holdCaches marks an experiment run in flight; the returned release
// must be called when the run finishes. Do not nest holds on one
// goroutine: a writer waiting between two read acquisitions deadlocks.
func holdCaches() (release func()) {
	cacheGate.RLock()
	return cacheGate.RUnlock
}

// ResetCaches empties every process-wide memoization layer the
// experiments depend on (shared chips, quality fronts, reference
// executions and kernel runs, covariance factorizations). It exists for benchmarks and
// equivalence tests that must measure or exercise cold-cache runs, and
// for long-running services that want to shed memory between bursts.
// The reset is atomic with respect to RunMany/RunAttribution: it
// blocks until in-flight runs complete and blocks new runs until every
// layer is empty, so a run never sees a half-reset cache generation.
func ResetCaches() {
	cacheGate.Lock()
	defer cacheGate.Unlock()
	repChips.Reset()
	fronts.Reset()
	kernels.Reset()
	rms.ResetReferenceCache()
	fault.ResetFlipMaskCache()
	variation.ResetFactorizationCache()
	variation.ResetEigenCache()
}

// Runner is the signature every experiment driver shares. The context
// carries cancellation and, under the tracing tier, the runner's trace
// span, so spans opened inside the driver (chip draws, front
// measurements, solver sweeps) nest under it.
type Runner func(ctx context.Context, cfg Config) ([]*Table, error)

// Registry maps experiment ids to drivers.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig1a":          Fig1a,
		"fig1b":          Fig1b,
		"fig1c":          Fig1c,
		"fig2":           Fig2,
		"fig4":           Fig4,
		"fig5a":          Fig5a,
		"fig5b":          Fig5b,
		"fig6":           Fig6,
		"fig7":           Fig7,
		"table2":         Table2,
		"table3":         Table3,
		"headline":       Headline,
		"corruption":     Corruption,
		"baselines":      Baselines,
		"weakscale":      Weakscale,
		"vddsweep":       VddSweep,
		"dynamic":        Dynamic,
		"population":     Population,
		"cpi":            CPI,
		"corruptionwide": CorruptionWide,
		"ccratio":        CCRatio,
	}
}

// IDs lists the experiment ids in presentation order. The first twelve
// regenerate the paper's artifacts; weakscale, dynamic and population
// extend the study along the axes Section 7 identifies.
func IDs() []string {
	return []string{"fig1a", "fig1b", "fig1c", "fig2", "fig4", "fig5a", "fig5b",
		"fig6", "fig7", "table2", "table3", "headline", "corruption", "baselines",
		"weakscale", "vddsweep", "dynamic", "population", "cpi", "corruptionwide", "ccratio"}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func e1(v float64) string { return fmt.Sprintf("%.1e", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// RenderCSV writes the table as CSV: a comment line with id/title, the
// header row, data rows, and one comment line per note.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
