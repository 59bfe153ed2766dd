package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rms"
)

// env is what every workload is set up from.
type env struct {
	seed  int64
	dir   string // holds the accordiond binary
	scale scale
}

// scale sizes the workloads. The benchmark always runs fullScale; the
// smoke test shrinks it so that every workload runs in about a second.
type scale struct {
	// A run sets up at least setups times and until set-up has taken
	// setupTime in total; setup_s is the median. Cheap set-ups repeat
	// often enough that one slow repetition cannot move the median.
	setups    int
	setupTime time.Duration
	regenIDs  []string // experiments one regen op runs
	fronts    []string // kernels whose fronts a traced regen op measures before its runners
	chips     int      // chips per population op
	serveIDs  []string // experiments each serve request asks for
}

func fullScale() scale {
	return scale{
		setups:    3,
		setupTime: time.Second,
		regenIDs:  experiments.IDs(),
		// Every kernel: RunAll measures the fronts of all seven.
		fronts:   []string{"canneal", "ferret", "bodytrack", "x264", "hotspot", "srad", "btcmine"},
		chips:    500,
		serveIDs: []string{"fig6", "fig7", "headline", "vddsweep", "baselines"},
	}
}

// workload names a workload and how its ops are driven.
type workload struct {
	name    string
	workers int // ops in flight at once; 0 means GOMAXPROCS
	minOps  int // ops a window runs at least, however long they take
	block   int // a traced run alternates untraced and traced blocks of this many ops
	start   func(ctx context.Context, e *env) (instance, error)
}

// workloads are run in this order when no -workload is given. Their
// names are fixed: BENCHMARK.json and later measurements cite them.
var workloads = []workload{
	// Three ops make a median that one slow op cannot move.
	{name: "regen", workers: 1, minOps: 3, block: 1, start: startRegen},
	{name: "population", workers: 1, block: 1, start: startPopulation},
	// Blocks of four keep each repeated request in the same block as
	// the request it repeats.
	{name: "serve", block: 4, start: startServe},
	// One block is one round of every kernel under every plan.
	{name: "faults", block: len(faultKernels) * len(faultPlanSpecs), start: startFaults},
}

// regen is the cold `accordion all`: every op empties the model caches,
// runs the experiments and renders them. At seed 1 its output is the
// CLI's byte for byte.
type regen struct {
	cfg    experiments.Config
	ids    []string
	fronts []string
}

// startRegen builds what a regeneration starts from, the kernel set and
// the representative chip. Each op empties these caches again, so ops
// stay cold and set-up measures only their construction.
func startRegen(ctx context.Context, e *env) (instance, error) {
	w := &regen{
		cfg:    experiments.Config{Seed: e.seed, ChipSeed: 2013 + e.seed, Chips: 20},
		ids:    e.scale.regenIDs,
		fronts: e.scale.fronts,
	}
	if _, err := experiments.AllKernels(); err != nil {
		return nil, err
	}
	if _, err := experiments.RepresentativeChip(ctx, w.cfg); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *regen) op(ctx context.Context, _ int, tr *tracer) (opOut, error) {
	experiments.ResetCaches()
	var results []experiments.RunResult
	var err error
	if tr == nil {
		results, err = experiments.RunMany(ctx, w.cfg, w.ids)
	} else {
		results, err = w.staged(ctx, tr)
	}
	if err != nil {
		return opOut{}, err
	}
	var buf bytes.Buffer
	id := tr.begin("experiments.render")
	err = experiments.RenderAll(&buf, results)
	tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	for _, id := range w.ids {
		if !bytes.Contains(buf.Bytes(), []byte("== "+id+":")) {
			return opOut{}, fmt.Errorf("%w: no table for %s", errOutput, id)
		}
	}
	return opOut{key: "regen", sum: sha256.Sum256(buf.Bytes()), items: 1}, nil
}

// staged is the traced regen op. It runs the same runners as RunMany
// and renders the same bytes, in stages timed from outside: the fronts
// are measured first through timing wrappers, which fill the
// experiments memo with identical models, and the runners then read
// them from the memo, as many at a time as RunMany's pool runs, taking
// ids in order as the pool does.
func (w *regen) staged(ctx context.Context, tr *tracer) ([]experiments.RunResult, error) {
	id := tr.begin("experiments.kernels")
	_, err := experiments.AllKernels()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("chip.new")
	_, err = experiments.RepresentativeChip(ctx, w.cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, name := range w.fronts {
		b, err := experiments.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		id := tr.begin("core.front." + name)
		_, err = experiments.MeasuredFronts(ctx, &timedKernel{Benchmark: b, rec: tr.rec, parent: id, op: tr.op}, w.cfg.Seed)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	results := make([]experiments.RunResult, len(w.ids))
	errs := make([]error, len(w.ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(parallel.Workers(), len(w.ids)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(w.ids); i = int(next.Add(1) - 1) {
				id := tr.begin("experiments." + w.ids[i])
				res, err := experiments.RunMany(ctx, w.cfg, w.ids[i:i+1])
				tr.end(id)
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = res[0]
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// population is Monte-Carlo design-space exploration: every op is the
// population experiment on a fresh sample of chips.
type population struct {
	seed  int64
	chips int
}

// startPopulation measures the canneal fronts the population runner
// reads from the memo, so the timed ops are the per-chip work alone.
func startPopulation(ctx context.Context, e *env) (instance, error) {
	cb, err := experiments.BenchmarkByName("canneal")
	if err != nil {
		return nil, err
	}
	if _, err := experiments.MeasuredFronts(ctx, cb, e.seed); err != nil {
		return nil, err
	}
	return &population{seed: e.seed, chips: e.scale.chips}, nil
}

func (w *population) op(ctx context.Context, i int, tr *tracer) (opOut, error) {
	cfg := experiments.Config{Seed: w.seed, ChipSeed: derive(w.seed, int64(i)), Chips: w.chips}
	id := tr.begin("experiments.population")
	res, err := experiments.RunMany(ctx, cfg, []string{"population"})
	tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	if err := experiments.FirstErr(res); err != nil {
		return opOut{}, err
	}
	if len(res[0].Tables) != 1 || len(res[0].Tables[0].Rows) != 4 {
		return opOut{}, fmt.Errorf("%w: population table does not have its four rows", errOutput)
	}
	var buf bytes.Buffer
	if err := experiments.RenderAll(&buf, res); err != nil {
		return opOut{}, err
	}
	return opOut{key: strconv.Itoa(i), sum: sha256.Sum256(buf.Bytes()), items: w.chips}, nil
}

// The faults workload's round-robin lists. Canneal is left out because
// regen already weighs it at about three quarters of its time; the
// invert mode is left out because only canneal implements it.
var (
	faultKernels   = []string{"ferret", "bodytrack", "x264", "hotspot", "srad", "btcmine"}
	faultPlanSpecs = []struct {
		name     string // metric-name form of the plan
		mode     fault.Mode
		num, den int
	}{
		{"none", fault.None, 0, 1},
		{"drop_1_4", fault.Drop, 1, 4},
		{"drop_1_2", fault.Drop, 1, 2},
		{"flip_1_4", fault.Flip, 1, 4},
		{"stuck_all_0_1_4", fault.StuckAll0, 1, 4},
		{"stuck_high_1_1_4", fault.StuckHigh1, 1, 4},
	}
)

const faultRunSeeds = 4

// faultPlans builds the faults workload's plans; flip draws its
// randomness from seed.
func faultPlans(seed int64) ([]fault.Plan, error) {
	var plans []fault.Plan
	for _, p := range faultPlanSpecs {
		plan, err := fault.NewPlan(p.mode, p.num, p.den, derive(seed, 300))
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

// faults runs kernels at their default input under fault plans and
// scores each run against the fault-free reference.
type faults struct {
	kernels []rms.Benchmark
	refs    []rms.Result
	plans   []fault.Plan
	seeds   []int64
}

// startFaults computes the references every op is scored against.
func startFaults(ctx context.Context, e *env) (instance, error) {
	plans, err := faultPlans(e.seed)
	if err != nil {
		return nil, err
	}
	w := &faults{plans: plans}
	for _, name := range faultKernels {
		b, err := experiments.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		ref, err := rms.ReferenceCtx(ctx, b, e.seed)
		if err != nil {
			return nil, err
		}
		w.kernels = append(w.kernels, b)
		w.refs = append(w.refs, ref)
	}
	for j := range faultRunSeeds {
		w.seeds = append(w.seeds, derive(e.seed, 400+int64(j)))
	}
	return w, nil
}

func (w *faults) op(_ context.Context, i int, tr *tracer) (opOut, error) {
	nk, np := len(w.kernels), len(w.plans)
	k, p, s := i%nk, (i/nk)%np, (i/(nk*np))%len(w.seeds)
	b := w.kernels[k]
	if tr != nil {
		b = &timedKernel{Benchmark: b, rec: tr.rec, parent: tr.root, op: tr.op}
	}
	run, err := b.Run(b.DefaultInput(), b.DefaultThreads(), w.plans[p], w.seeds[s])
	if err != nil {
		return opOut{}, err
	}
	q, err := b.Quality(run, w.refs[k])
	if err != nil {
		return opOut{}, err
	}
	if len(run.Output) == 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return opOut{}, fmt.Errorf("%w: %s under %s: %d outputs, quality %g", errOutput, b.Name(), faultPlanSpecs[p].name, len(run.Output), q)
	}
	h := sha256.New()
	var word [8]byte
	for _, v := range append(run.Output, run.Ops, q) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	out := opOut{key: fmt.Sprint(k, p, s), items: 1}
	h.Sum(out.sum[:0])
	return out, nil
}

func (*regen) close() (int64, error)      { return 0, nil }
func (*population) close() (int64, error) { return 0, nil }
func (*faults) close() (int64, error)     { return 0, nil }
