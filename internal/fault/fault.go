// Package fault is the error-injection framework of Sections 6.2-6.3.
//
// The paper's primary error model is Drop: a fixed fraction of the
// parallel tasks assigned to computation is prevented from contributing
// (uniformly spaced across the task index range), conservatively
// assuming every timing fault reaching an infected task corrupts that
// task's entire end result. The validation study additionally corrupts
// (rather than discards) infected tasks' end results: all/higher/lower
// order bits stuck at 0 or 1, random bit flips, and semantic inversion
// of decision variables.
package fault

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/parallel"
)

// Mode enumerates the error manifestations applied to infected tasks.
type Mode int

// Error modes.
const (
	// None injects nothing; the Default executions of Figures 2 and 4.
	None Mode = iota
	// Drop discards the infected task's contribution entirely.
	Drop
	// StuckAll0 / StuckAll1 force every bit of the result to 0 / 1.
	StuckAll0
	StuckAll1
	// StuckHigh0 / StuckHigh1 force the upper half of the bits.
	StuckHigh0
	StuckHigh1
	// StuckLow0 / StuckLow1 force the lower half of the bits.
	StuckLow0
	StuckLow1
	// Flip flips each bit independently with probability 1/2.
	Flip
	// Invert asks the benchmark to invert infected decision variables
	// (e.g. canneal accepts swaps it should reject and vice versa).
	// Value-level corruption leaves the value unchanged; the benchmark
	// interprets the mode at its decision points.
	Invert
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Drop:
		return "drop"
	case StuckAll0:
		return "stuck-all-0"
	case StuckAll1:
		return "stuck-all-1"
	case StuckHigh0:
		return "stuck-high-0"
	case StuckHigh1:
		return "stuck-high-1"
	case StuckLow0:
		return "stuck-low-0"
	case StuckLow1:
		return "stuck-low-1"
	case Flip:
		return "flip"
	case Invert:
		return "invert"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// CorruptionModes lists the value-corruption modes of the Section 6.3
// validation study (everything except None, Drop and Invert).
func CorruptionModes() []Mode {
	return []Mode{StuckAll0, StuckAll1, StuckHigh0, StuckHigh1, StuckLow0, StuckLow1, Flip}
}

// Plan decides which of a run's parallel tasks are infected and how.
// The zero value is the no-fault plan.
type Plan struct {
	Mode Mode
	Num  int // infected tasks per Den tasks (e.g. 1 of 4 for Drop 1/4)
	Den  int
	Seed int64 // seeds value corruption randomness (Flip)
	// Contiguous clusters the infected tasks at the start of every Den-
	// sized window instead of spacing them uniformly; it exists for the
	// drop-pattern ablation (the paper drops uniformly).
	Contiguous bool
	// Ledger, when non-nil, charges every injection the kernels Note
	// to the core executing its task. It never affects which tasks
	// are infected or how values corrupt.
	Ledger *Ledger
}

// NewPlan builds a plan infecting num of every den tasks under mode.
func NewPlan(mode Mode, num, den int, seed int64) (Plan, error) {
	if mode == None {
		return Plan{}, nil
	}
	if den <= 0 || num < 0 || num > den {
		return Plan{}, fmt.Errorf("fault: infection fraction %d/%d invalid", num, den)
	}
	return Plan{Mode: mode, Num: num, Den: den, Seed: seed}, nil
}

// DropQuarter returns the paper's Drop 1/4 plan.
func DropQuarter() Plan { return Plan{Mode: Drop, Num: 1, Den: 4} }

// DropHalf returns the paper's Drop 1/2 plan.
func DropHalf() Plan { return Plan{Mode: Drop, Num: 1, Den: 2} }

// Infected reports whether task index i (of any count) is infected.
// Infected tasks are uniformly spaced: exactly Num out of every Den
// consecutive indices, matching the paper's "uniformly dropped" tasks.
func (p Plan) Infected(i int) bool {
	if p.Mode == None || p.Num == 0 {
		return false
	}
	if i < 0 {
		return false
	}
	r := i % p.Den
	if p.Contiguous {
		return r < p.Num
	}
	// Bresenham-style spacing: task i is infected when the running
	// total floor((r+1)*Num/Den) advances at residue r = i mod Den.
	return (r+1)*p.Num/p.Den > r*p.Num/p.Den
}

// CountInfected returns how many of n tasks the plan infects.
func (p Plan) CountInfected(n int) int {
	if p.Mode == None || p.Num == 0 || n <= 0 {
		return 0
	}
	count := n / p.Den * p.Num
	for r := 0; r < n%p.Den; r++ {
		if p.Infected(r) {
			count++
		}
	}
	return count
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool { return p.Mode != None && p.Num > 0 }

// flipMaskCache memoizes Flip's per-(seed, task) XOR masks. The mask is
// a pure function of the split seed, but deriving it costs a fresh RNG —
// a 5 KB lagged-Fibonacci state — per corrupted value, which profiling
// showed was the simulator's single largest allocator (a Monte-Carlo
// population corrupts the same task indices on every chip). Keying by
// the split seed is exact: NewRNG sees nothing else.
var flipMaskCache = parallel.Cache[int64, uint64]{Name: "fault.FlipMask", Max: flipMaskMax}

// flipMaskMax bounds flipMaskCache at eight plan seeds' masks for the
// 64 task slots of the widest kernel, so a long-running service asked
// for ever new seeds holds a bounded number and no run evicts its own.
const flipMaskMax = 8 * 64

// flipMask returns the Flip mode's XOR mask for one task, bit-identical
// to drawing it from a fresh RNG seeded with SplitSeed(seed, task).
func flipMask(seed int64, task int) uint64 {
	split := mathx.SplitSeed(seed, int64(task))
	mask, _ := flipMaskCache.Do(split, func() (uint64, error) {
		rng := mathx.NewRNG(split)
		return uint64(rng.Int63())<<1 | uint64(rng.Intn(2)), nil
	})
	return mask
}

// ResetFlipMaskCache empties the process-wide flip-mask cache; it exists
// for benchmarks that need to measure cold-cache behavior.
func ResetFlipMaskCache() { flipMaskCache.Reset() }

// CorruptValue applies the plan's value-corruption mode to the float64
// end result v of infected task i. Drop, None and Invert return v
// unchanged (Drop is handled by discarding contributions, Invert at the
// benchmark's decision points).
func (p Plan) CorruptValue(v float64, task int) float64 {
	switch p.Mode {
	case None, Drop, Invert:
		return v
	}
	bits := math.Float64bits(v)
	const highMask = uint64(0xFFFFFFFF00000000)
	const lowMask = uint64(0x00000000FFFFFFFF)
	switch p.Mode {
	case StuckAll0:
		bits = 0
	case StuckAll1:
		bits = ^uint64(0)
	case StuckHigh0:
		bits &^= highMask
	case StuckHigh1:
		bits |= highMask
	case StuckLow0:
		bits &^= lowMask
	case StuckLow1:
		bits |= lowMask
	case Flip:
		bits ^= flipMask(p.Seed, task)
	}
	out := math.Float64frombits(bits)
	// A corrupted result is still a stored number; NaN/Inf patterns are
	// sanitized the way a victim application's reduction loop would
	// clamp them after a range check.
	if math.IsNaN(out) || math.IsInf(out, 0) {
		return math.MaxFloat64
	}
	return out
}
