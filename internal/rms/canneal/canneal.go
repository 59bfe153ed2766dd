// Package canneal reimplements PARSEC's canneal kernel: simulated
// annealing that minimizes the routing cost — the total half-perimeter
// wirelength (HPWL) of a synthetic multi-pin netlist placed on a grid.
//
// The Accordion input is swaps_per_temp: the number of swap attempts
// each thread makes per temperature step (Section 5.2; the paper
// designates it "without loss of generality" over the temperature-step
// count). Both problem size and quality depend on it linearly
// (Table 3). Fault injection follows footnote 1: infected threads are
// prevented from performing swap(); the Invert mode flips the
// accept/reject decision of infected threads, and the bit-corruption
// modes corrupt the cost delta feeding that decision.
package canneal

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Benchmark is the canneal kernel. Construct with New.
type Benchmark struct {
	netlist   *workload.Netlist
	byElem    [][]int // net indices touching each element
	tempSteps int
	t0        float64 // initial temperature
	tDecay    float64 // per-step geometric decay
	seed      int64
}

// New builds the canneal benchmark over its standard synthetic netlist.
func New() (*Benchmark, error) {
	nl, err := workload.NewNetlist(2000, 50, 50, 2, 0xCA77EA1)
	if err != nil {
		return nil, err
	}
	byElem := make([][]int, nl.Elements)
	for i, net := range nl.Nets {
		for _, e := range net {
			byElem[e] = append(byElem[e], i)
		}
	}
	return &Benchmark{
		netlist:   nl,
		byElem:    byElem,
		tempSteps: 24,
		t0:        20,
		tDecay:    0.75,
		seed:      0xCA77EA1,
	}, nil
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "canneal" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "optimization" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "swaps per temperature step" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "relative routing cost" }

// DefaultInput implements rms.Benchmark: 128 swaps per thread per step.
func (b *Benchmark) DefaultInput() float64 { return 128 }

// HyperInput implements rms.Benchmark.
func (b *Benchmark) HyperInput() float64 { return 2048 }

// Sweep implements rms.Benchmark.
func (b *Benchmark) Sweep() []float64 {
	return rms.SweepGeometric(48, 320, 9)
}

// ProblemSize implements rms.Benchmark: linear in swaps per step.
func (b *Benchmark) ProblemSize(input float64) float64 {
	return input / b.DefaultInput()
}

// DependencePS implements rms.Benchmark (Table 3).
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Linear }

// DependenceQ implements rms.Benchmark (Table 3).
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Linear }

// DefaultThreads implements rms.Benchmark.
func (b *Benchmark) DefaultThreads() int { return 64 }

// Profile implements rms.Benchmark. Roughly 10^10 dynamic ops at the
// default problem size with canneal's pointer-chasing memory behaviour.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   1.0e10,
		SerialFrac:   0.004,
		CPIBase:      1.0,
		MissPerOp:    0.0014,
		MemLatencyNs: 80,
	}
}

// placement holds each element's grid coordinates and a cache of every
// net's HPWL. deltaCost scores a swap into pending and scratch, and
// swap commits it, so each attempted swap costs one bounding-box pass
// per touching net.
type placement struct {
	x, y    []int32
	cost    []int32  // cached HPWL of each net
	stamp   []uint32 // the deltaCost generation that last scored each net
	gen     uint32
	pending []int   // nets the last deltaCost scored, each once
	scratch []int32 // their HPWL with that swap applied
}

func (b *Benchmark) initialPlacement() *placement {
	nl := b.netlist
	p := &placement{
		x:     make([]int32, nl.Elements),
		y:     make([]int32, nl.Elements),
		cost:  make([]int32, len(nl.Nets)),
		stamp: make([]uint32, len(nl.Nets)),
	}
	// Scatter elements deterministically: a fixed permutation of slots.
	perm := mathx.NewRNG(b.seed).Perm(nl.GridW * nl.GridH)
	for e := range p.x {
		p.x[e], p.y[e] = int32(perm[e]%nl.GridW), int32(perm[e]/nl.GridW)
	}
	for i := range p.cost {
		p.cost[i] = b.netCost(p, i)
	}
	return p
}

// netCost returns the half-perimeter wirelength (HPWL) of net i: the
// semi-perimeter of the bounding box of its pins.
func (b *Benchmark) netCost(p *placement, i int) int32 {
	pins := b.netlist.Nets[i]
	minX, minY := p.x[pins[0]], p.y[pins[0]]
	maxX, maxY := minX, minY
	for _, e := range pins[1:] {
		x, y := p.x[e], p.y[e]
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	return maxX - minX + maxY - minY
}

// totalCost returns the routing cost of the placement. HPWLs are small
// integers, so every sum of them is exact in any order.
func (p *placement) totalCost() float64 {
	c := 0
	for _, v := range p.cost {
		c += int(v)
	}
	return float64(c)
}

// deltaCost returns the routing-cost change of swapping elements ea and
// eb and leaves the touching nets' new HPWLs pending for swap.
func (b *Benchmark) deltaCost(p *placement, ea, eb int) float64 {
	if p.gen++; p.gen == 0 { // wrapped: forget every old stamp
		clear(p.stamp)
		p.gen = 1
	}
	p.exchange(ea, eb)
	p.pending, p.scratch = p.pending[:0], p.scratch[:0]
	d := int32(0)
	for _, e := range [2]int{ea, eb} {
		for _, ni := range b.byElem[e] {
			if p.stamp[ni] == p.gen {
				continue // a net on both elements is scored once
			}
			p.stamp[ni] = p.gen
			c := b.netCost(p, ni)
			p.pending, p.scratch = append(p.pending, ni), append(p.scratch, c)
			d += c - p.cost[ni]
		}
	}
	p.exchange(ea, eb)
	return float64(d)
}

// swap commits the swap of ea and eb that deltaCost last scored.
func (p *placement) swap(ea, eb int) {
	p.exchange(ea, eb)
	for k, ni := range p.pending {
		p.cost[ni] = p.scratch[k]
	}
}

// exchange swaps the coordinates of elements ea and eb.
func (p *placement) exchange(ea, eb int) {
	p.x[ea], p.x[eb] = p.x[eb], p.x[ea]
	p.y[ea], p.y[eb] = p.y[eb], p.y[ea]
}

// Run implements rms.Benchmark. The output is the single routing-cost
// value; Ops counts swap attempts actually executed.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	swapsPerTemp := int(math.Round(input))
	if swapsPerTemp < 1 {
		swapsPerTemp = 1
	}
	p := b.initialPlacement()
	rngs := make([]*mathx.RNG, threads)
	root := mathx.NewRNG(seed)
	for t := range rngs {
		rngs[t] = root.Split(int64(t))
	}
	ops := 0.0
	temp := b.t0
	n := b.netlist.Elements
	for step := 0; step < b.tempSteps; step++ {
		for t := 0; t < threads; t++ {
			infected := plan.Infected(t)
			if infected {
				plan.Note(t)
			}
			if infected && plan.Mode == fault.Drop {
				continue // swap() suppressed for dropped threads
			}
			rng := rngs[t]
			for k := 0; k < swapsPerTemp; k++ {
				ea, eb := rng.Intn(n), rng.Intn(n)
				if ea == eb {
					continue
				}
				ops++
				delta := b.deltaCost(p, ea, eb)
				if infected && plan.Mode != fault.Invert {
					// Bit corruption of the decision variable.
					delta = plan.CorruptValue(delta, t)
				}
				accept := delta < 0 || rng.Float64() < math.Exp(-delta/temp)
				if infected && plan.Mode == fault.Invert {
					accept = !accept
				}
				if accept {
					p.swap(ea, eb)
				}
			}
		}
		temp *= b.tDecay
	}
	return rms.Result{Output: []float64{p.totalCost()}, Ops: ops}, nil
}

// Quality implements rms.Benchmark: the relative routing cost, the
// hyper-accurate cost divided by the achieved cost (1 means the run
// matched the reference; lower means costlier routing).
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	if len(run.Output) != 1 || len(ref.Output) != 1 {
		return 0, fmt.Errorf("canneal: malformed outputs")
	}
	if run.Output[0] <= 0 {
		return 0, fmt.Errorf("canneal: non-positive routing cost %g", run.Output[0])
	}
	return ref.Output[0] / run.Output[0], nil
}

// Trace implements rms.Benchmark: netlist walking is a pointer chase
// over a multi-megabyte structure, with most references hitting loop
// state.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.PointerChase, WorkingSetBytes: 8 << 20,
		MemFrac: 0.35, HotFrac: 0.995, HotBytes: 16 * 1024, Seed: 0xCA7,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
