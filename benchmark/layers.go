package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/rms"
)

// sweep is the layer sweep of a traced run. It calls each layer's
// public entry point on inputs derived from the seed, records each call
// as a span, and collects the per-call costs as per-layer metrics. The
// sweep is the same under every workload, so each per-layer metric
// means the same thing in all of them; what a workload itself spends in
// each layer is in its span file and in the detailed result.
type sweep struct {
	ctx  context.Context
	rec  *recorder
	root int
	seed int64
	m    map[string]metric
}

func layerCosts(ctx context.Context, e *env, rec *recorder) (map[string]metric, error) {
	s := &sweep{ctx: ctx, rec: rec, root: rec.begin("layers", -1, -1), seed: derive(e.seed, 600), m: map[string]metric{}}
	defer rec.end(s.root)
	experiments.ResetCaches()
	runs, err := s.kernels()
	if err == nil {
		err = s.quality(runs)
	}
	if err == nil {
		err = s.faults()
	}
	var qm *core.QualityModel
	if err == nil {
		qm, err = s.fronts()
	}
	if err == nil {
		err = s.chips(qm)
	}
	if err == nil {
		err = s.runners()
	}
	if err == nil {
		err = s.service(filepath.Join(e.dir, "accordiond"))
	}
	return s.m, err
}

// time calls fn n times, each as a span, and returns the median.
func (s *sweep) time(name string, n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for r := range ds {
		id := s.rec.begin(name, s.root, -1)
		err := fn()
		ds[r] = float64(s.rec.end(id))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(quantile(ds, 0.5)), nil
}

func (s *sweep) set(name string, v float64, unit string) { s.m[name] = metric{v, unit} }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// kernels times building the kernel set cold, then one fault-free run
// of each kernel at its default input.
func (s *sweep) kernels() (map[string]rms.Result, error) {
	var kernels []rms.Benchmark
	d, err := s.time("experiments.kernels", 1, func() (err error) {
		kernels, err = experiments.AllKernels()
		return err
	})
	if err != nil {
		return nil, err
	}
	s.set("experiments.kernels_ms", ms(d), "ms")
	runs := map[string]rms.Result{}
	for _, b := range kernels {
		var res rms.Result
		d, err := s.time("rms."+b.Name()+".run", 3, func() (err error) {
			res, err = b.Run(b.DefaultInput(), b.DefaultThreads(), fault.Plan{}, s.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		if res.Ops <= 0 {
			return nil, fmt.Errorf("%w: %s counted %g ops", errOutput, b.Name(), res.Ops)
		}
		runs[b.Name()] = res
		s.set("rms."+b.Name()+".run_ms", ms(d), "ms")
		s.set("rms."+b.Name()+".ops", res.Ops, "count")
		s.set("rms."+b.Name()+".ns_per_op", float64(d.Nanoseconds())/res.Ops, "ns")
	}
	return runs, nil
}

// quality times the cold reference runs and the scoring of each run
// against its reference. Canneal is left out: its reference run alone
// takes seconds.
func (s *sweep) quality(runs map[string]rms.Result) error {
	var refs time.Duration
	for _, name := range faultKernels {
		b, err := experiments.BenchmarkByName(name)
		if err != nil {
			return err
		}
		var ref rms.Result
		d, err := s.time("rms.reference", 1, func() (err error) {
			ref, err = rms.ReferenceCtx(s.ctx, b, s.seed)
			return err
		})
		if err != nil {
			return err
		}
		refs += d
		d, err = s.time("quality."+name+".score", 21, func() error {
			_, err := b.Quality(runs[name], ref)
			return err
		})
		if err != nil {
			return err
		}
		s.set("quality."+name+".score_us", us(d), "us")
	}
	s.set("rms.reference_ms", ms(refs), "ms")
	return nil
}

// faults times one run of every faults-workload kernel under each plan.
func (s *sweep) faults() error {
	plans, err := faultPlans(s.seed)
	if err != nil {
		return err
	}
	for p, plan := range plans {
		name := faultPlanSpecs[p].name
		d, err := s.time("fault."+name, 3, func() error {
			for _, k := range faultKernels {
				b, err := experiments.BenchmarkByName(k)
				if err != nil {
					return err
				}
				if _, err := b.Run(b.DefaultInput(), b.DefaultThreads(), plan, s.seed); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.set("fault."+name+".run_ms", ms(d), "ms")
	}
	return nil
}

// fronts measures the fronts of the two cheapest kernels through timing
// wrappers; the front layer's own time is what their runs and scores
// leave uncovered. It returns hotspot's model for the solver step.
func (s *sweep) fronts() (*core.QualityModel, error) {
	var ids []int
	var hotspot *core.QualityModel
	for _, name := range []string{"hotspot", "btcmine"} {
		b, err := experiments.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		id := s.rec.begin("core.front."+name, s.root, -1)
		qm, err := core.MeasureFronts(&timedKernel{Benchmark: b, rec: s.rec, parent: id, op: -1}, s.seed)
		s.rec.end(id)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
		if name == "hotspot" {
			hotspot = qm
		}
	}
	spans := s.rec.snapshot()
	self := selfTimes(spans)
	var total, own time.Duration
	for _, id := range ids {
		total += spans[id].end - spans[id].start
		own += self[id]
	}
	s.set("core.front.ms", ms(total), "ms")
	s.set("core.front.self_ms", ms(own), "ms")
	return hotspot, nil
}

// chips times a cold chip, whose factory factors the covariance first,
// then the population runner's per-chip body on 21 chips from a warm
// factory, solving for hotspot.
func (s *sweep) chips(qm *core.QualityModel) error {
	d, err := s.time("chip.new", 1, func() error {
		_, err := experiments.RepresentativeChip(s.ctx, experiments.Config{ChipSeed: s.seed})
		return err
	})
	if err != nil {
		return err
	}
	s.set("chip.new_ms", ms(d), "ms")
	factory, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		return err
	}
	hotspot, err := experiments.BenchmarkByName("hotspot")
	if err != nil {
		return err
	}
	var sample, model, build, solve []float64
	clock := func(xs *[]float64, name string) (stop func()) {
		id := s.rec.begin(name, s.root, -1)
		return func() { *xs = append(*xs, us(s.rec.end(id))) }
	}
	for j := range 21 {
		stop := clock(&sample, "chip.sample")
		ch := factory.SampleCtx(s.ctx, derive(s.seed, int64(j)))
		stop()
		stop = clock(&model, "power.model")
		pm := power.NewModel(ch)
		stop()
		stop = clock(&build, "core.solver.new")
		solver, err := core.NewSolver(ch, pm, hotspot, qm)
		stop()
		if err != nil {
			return fmt.Errorf("chip %d: %w", j, err)
		}
		stop = clock(&solve, "core.solver.solve")
		_, err = solver.Solve(hotspot.DefaultInput(), core.Speculative)
		stop()
		if err != nil {
			return fmt.Errorf("chip %d: %w", j, err)
		}
	}
	s.set("chip.sample_us", quantile(sample, 0.5), "us")
	s.set("power.model_us", quantile(model, 0.5), "us")
	s.set("core.solver.new_us", quantile(build, 0.5), "us")
	s.set("core.solver.solve_us", quantile(solve, 0.5), "us")
	return nil
}

// layerIDs are the experiments the sweep times one by one: ones that
// need no measured front, so the sweep stays short.
var layerIDs = []string{"fig1a", "fig5a", "table2"}

// runners times single experiment runners on the chip the chips step
// built, then rendering their tables.
func (s *sweep) runners() error {
	cfg := experiments.Config{Seed: s.seed, ChipSeed: s.seed, Chips: 20}
	var results []experiments.RunResult
	for _, id := range layerIDs {
		d, err := s.time("experiments."+id, 1, func() error {
			res, err := experiments.RunMany(s.ctx, cfg, []string{id})
			results = append(results, res...)
			return err
		})
		if err != nil {
			return err
		}
		s.set("experiments."+id+"_ms", ms(d), "ms")
	}
	d, err := s.time("experiments.render", 1, func() error {
		return experiments.RenderAll(&bytes.Buffer{}, results)
	})
	if err != nil {
		return err
	}
	s.set("experiments.render_ms", ms(d), "ms")
	return nil
}

// service sends sequential requests to a fresh daemon. The service
// layer's overhead is what a request takes beyond the queue and run
// times the daemon reports for its job.
func (s *sweep) service(bin string) error {
	d, err := startDaemon(bin, 1)
	if err != nil {
		return err
	}
	var latency, overhead []float64
	for j := range 5 {
		id := s.rec.begin("service.request", s.root, -1)
		_, job, err := d.run(s.ctx, runRequest{Experiments: []string{"fig5a"}, Seed: s.seed, ChipSeed: derive(s.seed, 700+int64(j))})
		lat := s.rec.end(id)
		var queued, ran time.Duration
		if err == nil {
			queued, ran, err = d.jobTimes(s.ctx, job)
		}
		if err != nil {
			d.stop()
			return fmt.Errorf("service request %d: %w", j, err)
		}
		latency = append(latency, ms(lat))
		overhead = append(overhead, ms(lat-queued-ran))
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	s.set("service.request_ms", quantile(latency, 0.5), "ms")
	s.set("service.overhead_ms", quantile(overhead, 0.5), "ms")
	return nil
}
