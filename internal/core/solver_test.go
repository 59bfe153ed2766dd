package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/power"
	"repro/internal/rms"
	"repro/internal/rms/canneal"
	"repro/internal/rms/hotspot"
	"repro/internal/tech"
	"repro/internal/telemetry"
)

// Shared fixtures: measuring fronts and factorizing the chip are the
// expensive parts of these tests; do each once.
var (
	fixOnce   sync.Once
	fixChip   *chip.Chip
	fixPower  *power.Model
	fixBench  rms.Benchmark
	fixFronts *QualityModel
	fixErr    error
)

func fixtures(t *testing.T) (*chip.Chip, *power.Model, rms.Benchmark, *QualityModel) {
	t.Helper()
	fixOnce.Do(func() {
		fixChip, fixErr = chip.New(chip.DefaultConfig(), 2014)
		if fixErr != nil {
			return
		}
		fixPower = power.NewModel(fixChip)
		fixBench, fixErr = canneal.New()
		if fixErr != nil {
			return
		}
		fixFronts, fixErr = MeasureFronts(fixBench, 1)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixChip, fixPower, fixBench, fixFronts
}

func newTestSolver(t *testing.T) *Solver {
	t.Helper()
	ch, pm, b, qm := fixtures(t)
	s, err := NewSolver(ch, pm, b, qm)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMeasureFrontsShape(t *testing.T) {
	_, _, b, qm := fixtures(t)
	for _, f := range []*QualityFront{qm.Default, qm.Quarter, qm.Half} {
		if f == nil {
			t.Fatal("missing front")
		}
		if len(f.ProblemSizes) != len(b.Sweep()) {
			t.Fatalf("front has %d points", len(f.ProblemSizes))
		}
		for i := 1; i < len(f.ProblemSizes); i++ {
			if f.ProblemSizes[i] <= f.ProblemSizes[i-1] {
				t.Fatal("front not ascending in problem size")
			}
		}
	}
	// Default dominates Drop 1/4 dominates Drop 1/2 at the default size.
	d, q, h := qm.Default.At(1), qm.Quarter.At(1), qm.Half.At(1)
	if !(d >= q && q >= h) {
		t.Errorf("scenario ordering broken: %.3f / %.3f / %.3f", d, q, h)
	}
}

func TestFrontInterpolation(t *testing.T) {
	_, _, _, qm := fixtures(t)
	f := qm.Default
	// Interpolation hits measured points exactly and is monotone
	// between them for canneal.
	for i, ps := range f.ProblemSizes {
		if got := f.At(ps); math.Abs(got-f.Quality[i]) > 1e-12 {
			t.Fatalf("At(%g) = %g, want %g", ps, got, f.Quality[i])
		}
	}
	lo := f.At(f.ProblemSizes[0] - 10)
	hi := f.At(f.ProblemSizes[len(f.ProblemSizes)-1] + 10)
	if lo != f.Quality[0] || hi != f.Quality[len(f.Quality)-1] {
		t.Error("out-of-range interpolation should clamp")
	}
}

func TestSolverMismatchedQualityModel(t *testing.T) {
	ch, pm, _, qm := fixtures(t)
	other := hotspot.New()
	if _, err := NewSolver(ch, pm, other, qm); err == nil {
		t.Error("mismatched quality model accepted")
	}
}

func TestSolveStillPoint(t *testing.T) {
	s := newTestSolver(t)
	op, err := s.Solve(s.Bench.DefaultInput(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if op.Mode != Still {
		t.Errorf("default input solved as %v", op.Mode)
	}
	if !op.Feasible {
		t.Errorf("Still point infeasible: %+v", op)
	}
	// Iso-execution time achieved.
	if op.ExecTime > s.STVTime()+1e-12 {
		t.Errorf("exec time %.4f exceeds STV target %.4f", op.ExecTime, s.STVTime())
	}
	// Still mode requires NNTV >= NSTV * fSTV/fNTV (Table 1).
	needed := float64(s.Baseline().N) * s.Baseline().Freq / op.Freq
	// Memory-latency effects make NTV cycles cheaper, so allow slack
	// below the frequency-only bound, but N must far exceed NSTV.
	if float64(op.N) < 0.5*needed || op.N <= s.Baseline().N {
		t.Errorf("Still N = %d implausible vs frequency-ratio bound %.0f", op.N, needed)
	}
	// The headline: NTV operation at iso-execution-time is more energy
	// efficient than STV.
	if op.RelMIPSPerWatt < 1.2 || op.RelMIPSPerWatt > 2.2 {
		t.Errorf("Still MIPS/W ratio = %.2f, want ~1.6", op.RelMIPSPerWatt)
	}
}

func TestSolveModesByProblemSize(t *testing.T) {
	s := newTestSolver(t)
	sweep := s.Bench.Sweep()
	small, err := s.Solve(sweep[0], Safe)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Solve(sweep[len(sweep)-1], Safe)
	if err != nil {
		t.Fatal(err)
	}
	if small.Mode != Compress || big.Mode != Expand {
		t.Errorf("modes: %v / %v", small.Mode, big.Mode)
	}
	// Compress achieves iso-time at fewer cores than Expand (Section 6.3).
	if small.N >= big.N {
		t.Errorf("Compress N=%d not below Expand N=%d", small.N, big.N)
	}
	// Compress runs at a frequency at least as high (fewer, better cores).
	if small.Freq < big.Freq-1e-9 {
		t.Errorf("Compress f=%.3f below Expand f=%.3f", small.Freq, big.Freq)
	}
	// Compress consumes less power.
	if small.Power >= big.Power {
		t.Errorf("Compress power %.1f not below Expand %.1f", small.Power, big.Power)
	}
	// Compress pays with quality.
	if small.RelQuality >= big.RelQuality {
		t.Errorf("Compress quality %.3f not below Expand %.3f", small.RelQuality, big.RelQuality)
	}
}

func TestSpeculativeBeatsSafe(t *testing.T) {
	s := newTestSolver(t)
	in := s.Bench.DefaultInput()
	safe, err := s.Solve(in, Safe)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.Solve(in, Speculative)
	if err != nil {
		t.Fatal(err)
	}
	// Section 6.3: the higher speculative f means fewer cores suffice,
	// yielding a higher MIPS/W, at a quality cost.
	if spec.Freq <= safe.Freq {
		t.Errorf("speculative f %.3f not above safe %.3f", spec.Freq, safe.Freq)
	}
	if spec.N > safe.N {
		t.Errorf("speculative N=%d above safe N=%d", spec.N, safe.N)
	}
	if spec.RelMIPSPerWatt <= safe.RelMIPSPerWatt {
		t.Errorf("speculative MIPS/W %.2f not above safe %.2f", spec.RelMIPSPerWatt, safe.RelMIPSPerWatt)
	}
	if spec.RelQuality >= safe.RelQuality {
		t.Errorf("speculative quality %.3f not below safe %.3f", spec.RelQuality, safe.RelQuality)
	}
	// Paper: 8-41% frequency increase from speculation.
	gain := spec.Freq/safe.Freq - 1
	if gain < 0.02 || gain > 0.5 {
		t.Errorf("speculative f gain = %.0f%%, want ~8-41%%", gain*100)
	}
	if spec.Perr <= tech.ErrorFreePerr {
		t.Error("speculative point reports an error-free Perr")
	}
}

func TestFrontShape(t *testing.T) {
	s := newTestSolver(t)
	front, err := s.Front(Safe)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != len(s.Bench.Sweep()) {
		t.Fatalf("front has %d points", len(front))
	}
	// N grows with problem size; MIPS/W degrades with N (Section 6.3's
	// "degrading MIPS/W with increasing N"). Amortization of cluster
	// overheads allows small upticks at low N, so check the trend: the
	// last feasible point must sit clearly below the peak.
	peakEff, lastEff := 0.0, 0.0
	for i := 1; i < len(front); i++ {
		if front[i].N < front[i-1].N {
			t.Errorf("N not non-decreasing along the front at %d", i)
		}
		if front[i].Feasible && front[i-1].Feasible &&
			front[i].RelMIPSPerWatt > front[i-1].RelMIPSPerWatt+0.05 {
			t.Errorf("MIPS/W jumped with N at %d", i)
		}
	}
	for _, op := range front {
		if !op.Feasible {
			continue
		}
		if op.RelMIPSPerWatt > peakEff {
			peakEff = op.RelMIPSPerWatt
		}
		lastEff = op.RelMIPSPerWatt
	}
	if lastEff > peakEff-0.01 && peakEff > 0 {
		t.Errorf("MIPS/W does not degrade toward high N: peak %.2f, last feasible %.2f", peakEff, lastEff)
	}
	// The largest problem sizes exceed the chip: N- or power-limited.
	last := front[len(front)-1]
	if last.Feasible {
		t.Error("largest Expand point should be resource-limited on this chip")
	}
	if last.Limit != "cores" && last.Limit != "power" {
		t.Errorf("limit = %q", last.Limit)
	}
}

func TestQualityFloorMarksPoints(t *testing.T) {
	s := newTestSolver(t)
	s.QualityFloor = 0.99
	op, err := s.Solve(s.Bench.Sweep()[0], Speculative)
	if err != nil {
		t.Fatal(err)
	}
	if op.Feasible || op.Limit != "quality" {
		t.Errorf("deep Speculative Compress should be quality-limited, got %+v", op.Limit)
	}
}

func TestSpeculativeFrontSelection(t *testing.T) {
	_, _, _, qm := fixtures(t)
	f := qm.SpeculativeFront()
	if f != qm.Quarter && f != qm.Half {
		t.Fatal("speculative front must be one of the drop fronts")
	}
	// canneal's Drop 1/4 loss at the default size exceeds 5%, so the
	// paper's rule keeps Drop 1/4.
	loss := 1 - qm.Quarter.At(1)/qm.Default.At(1)
	if loss > 0.05 && f != qm.Quarter {
		t.Error("non-negligible Drop 1/4 degradation should select the 1/4 front")
	}
	if loss <= 0.05 && f != qm.Half {
		t.Error("negligible Drop 1/4 degradation should select the conservative 1/2 front")
	}
}

func TestSetVdd(t *testing.T) {
	s := newTestSolver(t)
	base := s.Vdd()
	if base != s.Chip.VddNTV() {
		t.Fatalf("default Vdd %.3f != chip VddNTV", base)
	}
	if err := s.SetVdd(base - 0.01); err == nil {
		t.Error("sub-VddMIN voltage accepted")
	}
	if err := s.SetVdd(1.5); err == nil {
		t.Error("beyond-STV voltage accepted")
	}
	if err := s.SetVdd(base + 0.1); err != nil {
		t.Fatal(err)
	}
	opHigh, err := s.Solve(s.Bench.DefaultInput(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetVdd(base); err != nil {
		t.Fatal(err)
	}
	opBase, err := s.Solve(s.Bench.DefaultInput(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	// The NTC premise: raising Vdd away from Vth costs energy
	// efficiency at iso-execution time. (The engaged set's common
	// frequency is not guaranteed monotone in Vdd: the greedy
	// efficiency ordering re-shuffles, see chip.SelectEfficient.)
	if opHigh.RelMIPSPerWatt >= opBase.RelMIPSPerWatt {
		t.Error("raising Vdd should cost energy efficiency (the NTC premise)")
	}
}

func TestClusterGranularEngagement(t *testing.T) {
	s := newTestSolver(t)
	s.SetClusterGranular(true)
	if !s.ClusterGranular() {
		t.Fatal("granularity flag lost")
	}
	op, err := s.Solve(s.Bench.DefaultInput(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	s.SetClusterGranular(false)
	perCore, err := s.Solve(s.Bench.DefaultInput(), Safe)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-cluster engagement drags each cluster's slowest member in,
	// so iso-time needs at least as many cores and is never more
	// efficient than free per-core selection.
	if op.N < perCore.N {
		t.Errorf("cluster-granular N=%d below per-core N=%d", op.N, perCore.N)
	}
	if op.RelMIPSPerWatt > perCore.RelMIPSPerWatt+1e-9 {
		t.Errorf("cluster granularity beat per-core selection: %.3f vs %.3f",
			op.RelMIPSPerWatt, perCore.RelMIPSPerWatt)
	}
	if op.Feasible {
		// Engagement must cover whole clusters up to the last one.
		full := op.N / s.Chip.Cfg.CoresPer * s.Chip.Cfg.CoresPer
		if op.N-full >= s.Chip.Cfg.CoresPer {
			t.Error("engagement order not cluster-contiguous")
		}
	}
}

func TestSolveBestDominatesMinimalN(t *testing.T) {
	s := newTestSolver(t)
	in := s.Bench.DefaultInput()
	minimal, err := s.Solve(in, Safe)
	if err != nil {
		t.Fatal(err)
	}
	best, err := s.SolveBest(in, Safe)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible {
		t.Fatal("best point infeasible")
	}
	if best.RelMIPSPerWatt < minimal.RelMIPSPerWatt-1e-9 {
		t.Errorf("SolveBest (%.3f) below Solve (%.3f)", best.RelMIPSPerWatt, minimal.RelMIPSPerWatt)
	}
	// Still iso-time.
	if best.ExecTime > s.STVTime()+1e-12 {
		t.Error("best point misses the execution-time target")
	}
	// When nothing is feasible, SolveBest falls back to the diagnosing
	// minimal-N point.
	s.QualityFloor = 5.0
	op, err := s.SolveBest(in, Safe)
	if err != nil {
		t.Fatal(err)
	}
	if op.Feasible || op.Limit == "" {
		t.Error("infeasible fallback lost its limit diagnosis")
	}
	s.QualityFloor = 0
}

// The solver's N tracks the paper's closed-form bound: at most the
// bound (the memory wall gives NTV cycles an IPC advantage), and no
// less than the bound deflated by that advantage.
func TestSolverTracksClosedFormN(t *testing.T) {
	s := newTestSolver(t)
	bl := s.Baseline()
	for _, in := range []float64{s.Bench.Sweep()[0], s.Bench.DefaultInput()} {
		op, err := s.Solve(in, Safe)
		if err != nil {
			t.Fatal(err)
		}
		if !op.Feasible {
			continue
		}
		bound := RequiredN(bl.N, bl.Freq, op.Freq, op.ProblemSize)
		ipcAdvantage := s.profile.IPC(op.Freq) / s.profile.IPC(bl.Freq)
		if float64(op.N) > bound+1 {
			t.Errorf("input %g: N=%d exceeds the closed-form bound %.1f", in, op.N, bound)
		}
		if float64(op.N) < bound/ipcAdvantage-1 {
			t.Errorf("input %g: N=%d below the IPC-adjusted bound %.1f", in, op.N, bound/ipcAdvantage)
		}
	}
}

// TestFreqTableMatchesPerCallModel pins the one-pass frequency table to
// the per-call chip model, bit for bit: every prefix-minimum entry is
// the running minimum of CoreFreqAtPerr over its prefix of the
// engagement order, and fCC is the largest CoreSafeFreq on the chip.
// It covers several chips, every policy, both engagement
// granularities, and the chip's VddNTV and a raised supply.
func TestFreqTableMatchesPerCallModel(t *testing.T) {
	_, _, b, qm := fixtures(t)
	f, err := chip.NewFactory(chip.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, seed := range []int64{1, 2, 2014} {
		ch := f.Sample(seed)
		s, err := NewSolver(ch, power.NewModel(ch), b, qm)
		if err != nil {
			t.Fatal(err)
		}
		for _, vdd := range []float64{ch.VddNTV(), ch.VddNTV() + 0.1} {
			if err := s.SetVdd(vdd); err != nil {
				t.Fatal(err)
			}
			for _, policy := range []chip.SelectPolicy{chip.SelectEfficient, chip.SelectFastest, chip.SelectSequential} {
				s.SetPolicy(policy)
				for _, cluster := range []bool{false, true} {
					s.SetClusterGranular(cluster)
					name := fmt.Sprintf("seed %d vdd %.3f %s cluster=%v", seed, vdd, policy, cluster)
					if len(s.order) != len(ch.Cores) || len(s.prefixMin) != len(s.order) {
						t.Fatalf("%s: order %d, table %d rows, want %d", name, len(s.order), len(s.prefixMin), len(ch.Cores))
					}
					for g, perr := range s.perrGrid {
						running := math.Inf(1)
						for n, id := range s.order {
							if fi := ch.CoreFreqAtPerr(id, vdd, perr); fi < running {
								running = fi
							}
							if !same(s.prefixMin[n][g], running) {
								t.Fatalf("%s: prefixMin[%d][%d] = %v, want %v", name, n, g, s.prefixMin[n][g], running)
							}
						}
					}
					fCC := 0.0
					for i := range ch.Cores {
						if fi := ch.CoreSafeFreq(i, vdd); fi > fCC {
							fCC = fi
						}
					}
					if !same(s.fCC, fCC) {
						t.Fatalf("%s: fCC = %v, want %v", name, s.fCC, fCC)
					}
				}
			}
		}
	}
}

// TestSolversShareTheChipsCoreTables: Headline's shape, seven solvers
// on one fresh chip each solving Safe and Speculative, characterizes
// the chip twice, once at the STV nominal for the baseline and once at
// VddNTV; every other lookup is a hit.
func TestSolversShareTheChipsCoreTables(t *testing.T) {
	_, _, b, qm := fixtures(t)
	defer telemetry.SetEnabled(true)()
	hits := telemetry.GetCounter("cache.chip.CoreTable.hits")
	misses := telemetry.GetCounter("cache.chip.CoreTable.misses")
	ch, err := chip.New(chip.DefaultConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.NewModel(ch)
	hits0, misses0 := hits.Value(), misses.Value()
	for k := 0; k < 7; k++ {
		s, err := NewSolver(ch, pm, b, qm)
		if err != nil {
			t.Fatal(err)
		}
		for _, flavor := range []Flavor{Safe, Speculative} {
			if _, err := s.Solve(b.DefaultInput(), flavor); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := misses.Value() - misses0; got != 2 {
		t.Errorf("7 solvers built %d core tables, want 2 (STV nominal and VddNTV)", got)
	}
	if got := hits.Value() - hits0; got < 12 {
		t.Errorf("7 solvers hit the core tables %d times, want at least 12", got)
	}
}
