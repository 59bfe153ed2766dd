package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rms"
)

// runArgs is every argument a kernel run is a pure function of.
type runArgs struct {
	name    string
	input   float64
	threads int
	plan    fault.Plan // with a nil Ledger
	seed    int64
}

// runCounter counts kernel runs by their arguments.
type runCounter struct {
	mu   sync.Mutex
	runs map[runArgs]int
}

// countingKernel counts its Run calls in c, like the benchmark's
// timing wrapper. x264's ProblemSize calls its own concrete Run, which
// the wrapper does not see, so those runs are not counted.
type countingKernel struct {
	rms.Benchmark
	c *runCounter
}

func (k countingKernel) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	key := runArgs{k.Name(), input, threads, plan, seed}
	key.plan.Ledger = nil
	k.c.mu.Lock()
	k.c.runs[key]++
	k.c.mu.Unlock()
	return k.Benchmark.Run(input, threads, plan, seed)
}

// repeats lists the counted kernel runs that executed more than once.
func (c *runCounter) repeats() []string {
	var repeats []string
	for args, n := range c.runs {
		if n > 1 {
			repeats = append(repeats, fmt.Sprintf("%+v ran %d times", args, n))
		}
	}
	sort.Strings(repeats)
	return repeats
}

// countKernelRuns empties every cache and installs counting wrappers
// around all seven kernels in the kernels memo, so every runner's
// kernel runs are counted.
func countKernelRuns() (*runCounter, error) {
	ResetCaches()
	all, err := AllKernels()
	if err != nil {
		return nil, err
	}
	kernels.Reset()
	c := &runCounter{runs: map[runArgs]int{}}
	wrapped := make([]rms.Benchmark, len(all))
	for i, b := range all {
		wrapped[i] = countingKernel{b, c}
	}
	install := func(set string, ks []rms.Benchmark) error {
		_, err := kernels.Do(set, func() ([]rms.Benchmark, error) { return ks, nil })
		return err
	}
	if err := install("table3", wrapped[:len(wrapped)-1]); err != nil { // AllBenchmarks: all but btcmine
		return nil, err
	}
	return c, install("all", wrapped)
}

// coldRender is one RunAll of every id from cold caches: each id's
// digest line, in digestPath's format, and the kernel runs that
// executed more than once.
type coldRender struct {
	workers int
	lines   []byte
	repeats []string
	err     error
}

// sharedColdRender is the one cold render at width 8 that
// TestExperimentDigests and TestParallelEquivalence share: whichever
// runs first pays for it, once per test process.
var sharedColdRender = sync.OnceValue(func() coldRender { return renderCold(8) })

// renderCold runs RunAll from cold caches on a pool of the given
// width, counting every kernel run. It empties the kernels memo when
// it finishes, so no counting wrapper stays there, and leaves the
// other caches warm for the tests that follow.
func renderCold(workers int) coldRender {
	defer parallel.SetWorkers(workers)()
	defer kernels.Reset()
	run := coldRender{workers: workers}
	counter, err := countKernelRuns()
	if err != nil {
		run.err = err
		return run
	}
	results, err := RunAll(context.Background(), DefaultConfig())
	if err == nil {
		run.lines, err = digestLines(results)
	}
	run.err = err
	run.repeats = counter.repeats()
	return run
}

// TestParallelEquivalence is the engine's acceptance test: every
// experiment, rendered from cold caches by a sequential pool and by a
// wide one, must match its pinned digest — across every parallel path
// (population draws, quality-front profiling, the corruption fan-outs,
// solver sweeps, the experiment driver itself, and all the caches they
// share) — and no kernel run may execute twice in one RunAll. It
// renders width 1 itself and reads width 8 from the cold render
// TestExperimentDigests shares; each subtest checks one group of ids
// at both widths.
func TestParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	cases := []struct {
		name string
		ids  []string
	}{
		{"population-and-chips", []string{"fig5a", "population", "fig5b", "dynamic", "ccratio", "baselines"}},
		{"fronts-and-solver", []string{"fig6", "fig2", "fig4", "fig7", "table3", "headline", "corruption", "corruptionwide", "weakscale"}},
		{"mixed-drivers", []string{"fig1a", "table2", "vddsweep", "fig1b", "fig1c", "cpi"}},
	}
	var grouped []string
	for _, c := range cases {
		grouped = append(grouped, c.ids...)
	}
	all := IDs()
	sort.Strings(grouped)
	sort.Strings(all)
	if !slices.Equal(grouped, all) {
		t.Fatalf("the cases cover %v, want each of %v once", grouped, all)
	}

	runs := []coldRender{renderCold(1), sharedColdRender()}
	got := make([]map[string]string, len(runs))
	for i, run := range runs {
		if run.err != nil {
			t.Fatalf("width %d: %v", run.workers, run.err)
		}
		if len(run.repeats) > 0 {
			t.Errorf("width %d: %d distinct kernel runs repeated:\n%s",
				run.workers, len(run.repeats), strings.Join(run.repeats, "\n"))
		}
		got[i] = digestsByID(run.lines)
	}
	want := digestsByID(readDigests(t))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, id := range c.ids {
				for i, run := range runs {
					if got[i][id] != want[id] {
						t.Errorf("%s at width %d drifted from %s: digest %s, want %s; if intentional, run `make golden` and update EXPERIMENTS.md",
							id, run.workers, digestPath, got[i][id], want[id])
					}
				}
			}
		})
	}
}

// TestRunManyOrdersResults pins that results come back in argument
// order regardless of completion order.
func TestRunManyOrdersResults(t *testing.T) {
	defer parallel.SetWorkers(4)()
	ids := []string{"table2", "fig1a", "fig1b"}
	results, err := RunMany(context.Background(), DefaultConfig(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("%d results for %d ids", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Fatalf("result %d is %s, want %s", i, r.ID, ids[i])
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if len(r.Tables) == 0 {
			t.Fatalf("%s produced no tables", r.ID)
		}
	}
}

func TestRunManyRejectsUnknownID(t *testing.T) {
	if _, err := RunMany(context.Background(), DefaultConfig(), []string{"fig1a", "nonsense"}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunManyCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMany(ctx, DefaultConfig(), IDs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunMany: err = %v, want context.Canceled", err)
	}
}

// TestRepresentativeChipShared pins the cross-runner sharing: the same
// ChipSeed yields the same *Chip pointer, distinct seeds distinct
// chips.
func TestRepresentativeChipShared(t *testing.T) {
	ResetCaches()
	a, err := RepresentativeChip(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RepresentativeChip(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("RepresentativeChip rebuilt the shared sample")
	}
	other := DefaultConfig()
	other.ChipSeed = 99
	c, err := RepresentativeChip(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct ChipSeeds shared one chip")
	}
	ResetCaches()
}
