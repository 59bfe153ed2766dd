package canneal

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/rms"
	"repro/internal/rms/rmstest"
)

func newBench(t *testing.T) *Benchmark {
	t.Helper()
	b, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConformance(t *testing.T) {
	rmstest.Conformance(t, newBench(t))
}

func TestAnnealingReducesCost(t *testing.T) {
	b := newBench(t)
	p := b.initialPlacement()
	initial := p.totalCost()
	res, err := b.Run(b.DefaultInput(), 16, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] >= initial {
		t.Errorf("annealing did not improve cost: %.0f -> %.0f", initial, res.Output[0])
	}
	if res.Output[0] < 0.05*initial {
		t.Errorf("cost %.0f implausibly low vs initial %.0f", res.Output[0], initial)
	}
}

// freshTotal recomputes the routing cost from the coordinates alone,
// summing in float64 as the pre-cache kernel did.
func freshTotal(b *Benchmark, p *placement) float64 {
	c := 0.0
	for i := range b.netlist.Nets {
		c += float64(b.netCost(p, i))
	}
	return c
}

// Every scored delta, applied in sequence, must carry the exact bits
// of the true change in total cost, and must have scored each touching
// net exactly once. Pairs on a common net exercise the shared-net
// dedupe; starting near the top of the generation counter makes the
// sequence cross its wrap.
func TestDeltaCostMatchesTotal(t *testing.T) {
	b := newBench(t)
	p := b.initialPlacement()
	p.gen = math.MaxUint32 - 150
	pairs := [][2]int{{3, 997}}
	for i := 0; i < 50; i++ {
		pins := b.netlist.Nets[i*37]
		pairs = append(pairs, [2]int{pins[0], pins[len(pins)-1]})
	}
	rng := mathx.NewRNG(5)
	for len(pairs) < 300 {
		pairs = append(pairs, [2]int{rng.Intn(b.netlist.Elements), rng.Intn(b.netlist.Elements)})
	}
	before := freshTotal(b, p)
	for _, pr := range pairs {
		delta := b.deltaCost(p, pr[0], pr[1])
		touching := map[int]bool{}
		for _, e := range pr {
			for _, ni := range b.byElem[e] {
				touching[ni] = true
			}
		}
		for _, ni := range p.pending {
			if !touching[ni] {
				t.Fatalf("swap %v: net %d scored twice or not touching", pr, ni)
			}
			delete(touching, ni)
		}
		if len(touching) != 0 {
			t.Fatalf("swap %v: %d touching nets left unscored", pr, len(touching))
		}
		p.swap(pr[0], pr[1])
		after := freshTotal(b, p)
		if math.Float64bits(delta) != math.Float64bits(after-before) {
			t.Fatalf("swap %v: incremental delta %g vs true delta %g", pr, delta, after-before)
		}
		before = after
	}
	if got := p.totalCost(); math.Float64bits(got) != math.Float64bits(before) {
		t.Errorf("cached total %g vs recomputed %g", got, before)
	}
}

// Scored swaps with about half accepted must keep one element per slot
// and every cached net cost equal to a fresh computation.
func TestSwapMaintainsInvariants(t *testing.T) {
	b := newBench(t)
	p := b.initialPlacement()
	rng := mathx.NewRNG(7)
	n := b.netlist.Elements
	for k := 0; k < 400; k++ {
		ea, eb := rng.Intn(n), rng.Intn(n)
		b.deltaCost(p, ea, eb)
		if rng.Intn(2) == 0 {
			p.swap(ea, eb)
		}
	}
	w, h := b.netlist.GridW, b.netlist.GridH
	occupant := make([]int, w*h)
	for e := 0; e < n; e++ {
		x, y := int(p.x[e]), int(p.y[e])
		if x < 0 || x >= w || y < 0 || y >= h {
			t.Fatalf("element %d off the grid at (%d,%d)", e, x, y)
		}
		if other := occupant[y*w+x]; other != 0 {
			t.Fatalf("elements %d and %d share slot (%d,%d)", other-1, e, x, y)
		}
		occupant[y*w+x] = e + 1
	}
	for i, c := range p.cost {
		if fresh := b.netCost(p, i); c != fresh {
			t.Fatalf("net %d: cached cost %d, fresh %d", i, c, fresh)
		}
	}
}

// Scoring and committing a swap is the annealing inner loop; once the
// pending and scratch slices have grown to the largest pair seen, it
// must not allocate.
func TestSwapStepAllocatesNothing(t *testing.T) {
	b := newBench(t)
	p := b.initialPlacement()
	rng := mathx.NewRNG(9)
	n := b.netlist.Elements
	step := func() {
		ea, eb := rng.Intn(n), rng.Intn(n)
		if b.deltaCost(p, ea, eb) <= 0 {
			p.swap(ea, eb)
		}
	}
	for k := 0; k < 500; k++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs != 0 {
		t.Errorf("deltaCost+swap allocated %.1f times per step", allocs)
	}
}

func TestDropReducesOps(t *testing.T) {
	b := newBench(t)
	full, err := b.Run(64, 16, fault.Plan{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	half, err := b.Run(64, 16, fault.DropHalf(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := half.Ops / full.Ops
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("Drop 1/2 executed %.2f of full ops, want ~0.5", ratio)
	}
}

// Section 6.3: inverting the swap decision is far more damaging than
// dropping the same threads, while bit corruptions of the decision
// variable are no worse than Drop.
func TestInvertWorseThanDrop(t *testing.T) {
	b := newBench(t)
	ref, err := rms.Reference(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := func(plan fault.Plan) float64 {
		r, err := b.Run(b.DefaultInput(), 64, plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := b.Quality(r, ref)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	drop := q(fault.DropQuarter())
	invert := q(fault.Plan{Mode: fault.Invert, Num: 1, Den: 4})
	if invert >= drop {
		t.Errorf("invert (%.3f) should corrupt more than drop (%.3f)", invert, drop)
	}
}

func TestTable3Classification(t *testing.T) {
	b := newBench(t)
	if b.DependencePS() != rms.Linear || b.DependenceQ() != rms.Linear {
		t.Error("canneal should be linear/linear per Table 3")
	}
}
