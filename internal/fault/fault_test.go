package fault

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlanNoFault(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Error("zero plan active")
	}
	for i := 0; i < 100; i++ {
		if p.Infected(i) {
			t.Fatal("zero plan infects")
		}
	}
	if p.CountInfected(100) != 0 {
		t.Error("zero plan counts infections")
	}
}

func TestDropQuarterSpacing(t *testing.T) {
	p := DropQuarter()
	if got := p.CountInfected(64); got != 16 {
		t.Errorf("Drop 1/4 infected %d of 64, want 16", got)
	}
	// Exactly one infected task per 4 consecutive indices.
	for base := 0; base < 64; base += 4 {
		n := 0
		for i := base; i < base+4; i++ {
			if p.Infected(i) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("window [%d,%d) has %d infections", base, base+4, n)
		}
	}
}

func TestDropHalfSpacing(t *testing.T) {
	p := DropHalf()
	if got := p.CountInfected(64); got != 32 {
		t.Errorf("Drop 1/2 infected %d of 64, want 32", got)
	}
}

func TestCountMatchesInfectedProperty(t *testing.T) {
	f := func(num, den, n uint8) bool {
		d := int(den%12) + 1
		m := int(num) % (d + 1)
		plan, err := NewPlan(Drop, m, d, 0)
		if err != nil {
			return false
		}
		total := int(n)
		count := 0
		for i := 0; i < total; i++ {
			if plan.Infected(i) {
				count++
			}
		}
		return count == plan.CountInfected(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(Drop, 3, 2, 0); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := NewPlan(Drop, -1, 2, 0); err == nil {
		t.Error("negative numerator accepted")
	}
	if _, err := NewPlan(Drop, 1, 0, 0); err == nil {
		t.Error("zero denominator accepted")
	}
	p, err := NewPlan(None, 9, 0, 0)
	if err != nil || p.Active() {
		t.Error("None plan should always construct inactive")
	}
}

func TestNegativeIndexNotInfected(t *testing.T) {
	if DropHalf().Infected(-1) {
		t.Error("negative task index infected")
	}
}

func TestCorruptValueModes(t *testing.T) {
	v := 123.456
	p := Plan{Mode: StuckAll0, Num: 1, Den: 1}
	if got := p.CorruptValue(v, 0); got != 0 {
		t.Errorf("stuck-all-0 gave %g", got)
	}
	p.Mode = StuckAll1
	if got := p.CorruptValue(v, 0); math.IsNaN(got) || got != math.MaxFloat64 {
		t.Errorf("stuck-all-1 should sanitize NaN to MaxFloat64, got %g", got)
	}
	p.Mode = StuckLow0
	got := p.CorruptValue(v, 0)
	if got == v {
		t.Error("stuck-low-0 left value intact")
	}
	if math.Abs(got-v) > 1e-4 {
		t.Errorf("stuck-low-0 changed value too much: %g", got)
	}
	p.Mode = StuckHigh1
	if got := p.CorruptValue(v, 0); got == v {
		t.Error("stuck-high-1 left value intact")
	}
	p.Mode = Flip
	p.Seed = 7
	a := p.CorruptValue(v, 3)
	b := p.CorruptValue(v, 3)
	if a != b {
		t.Error("flip corruption not deterministic per task")
	}
	c := p.CorruptValue(v, 4)
	if a == c {
		t.Error("flip corruption identical across tasks")
	}
	// Non-corrupting modes pass through.
	for _, m := range []Mode{None, Drop, Invert} {
		p.Mode = m
		if p.CorruptValue(v, 0) != v {
			t.Errorf("mode %v altered the value", m)
		}
	}
}

func TestCorruptValueNeverNaN(t *testing.T) {
	f := func(raw uint64, task uint8) bool {
		v := math.Float64frombits(raw)
		if math.IsNaN(v) {
			return true
		}
		for _, m := range CorruptionModes() {
			p := Plan{Mode: m, Num: 1, Den: 1, Seed: 3}
			got := p.CorruptValue(v, int(task))
			if math.IsNaN(got) || math.IsInf(got, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		None: "none", Drop: "drop", StuckAll0: "stuck-all-0", StuckAll1: "stuck-all-1",
		StuckHigh0: "stuck-high-0", StuckHigh1: "stuck-high-1",
		StuckLow0: "stuck-low-0", StuckLow1: "stuck-low-1", Flip: "flip", Invert: "invert",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d stringifies to %q", int(m), m.String())
		}
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode must render")
	}
	if len(CorruptionModes()) != 7 {
		t.Error("corruption mode list wrong")
	}
}

func TestContiguousPlan(t *testing.T) {
	p := Plan{Mode: Drop, Num: 16, Den: 64, Contiguous: true}
	for i := 0; i < 64; i++ {
		want := i < 16
		if p.Infected(i) != want {
			t.Fatalf("contiguous infection wrong at %d", i)
		}
	}
	if got := p.CountInfected(64); got != 16 {
		t.Errorf("contiguous count = %d", got)
	}
	if got := p.CountInfected(10); got != 10 {
		t.Errorf("partial contiguous count = %d, want 10", got)
	}
	// The uniform plan with the same fraction spreads instead.
	u := Plan{Mode: Drop, Num: 16, Den: 64}
	run := 0
	maxRun := 0
	for i := 0; i < 64; i++ {
		if u.Infected(i) {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun > 1 {
		t.Errorf("uniform 16/64 plan has %d adjacent infections", maxRun)
	}
}

// TestFlipMaskCacheBounded: flip masks for ever new plan seeds stay
// within flipMaskMax entries, and a mask pushed out is recomputed
// bit-identically.
func TestFlipMaskCacheBounded(t *testing.T) {
	ResetFlipMaskCache()
	defer ResetFlipMaskCache()
	const v = 1.2345
	first := Plan{Mode: Flip, Num: 1, Den: 4, Seed: 1}.CorruptValue(v, 0)
	for seed := int64(1); seed <= flipMaskMax+100; seed++ {
		p := Plan{Mode: Flip, Num: 1, Den: 4, Seed: seed}
		p.CorruptValue(v, 0)
		if want := min(int(seed), flipMaskMax); flipMaskCache.Len() != want {
			t.Fatalf("after %d seeds the memo holds %d masks, want %d", seed, flipMaskCache.Len(), want)
		}
	}
	again := Plan{Mode: Flip, Num: 1, Den: 4, Seed: 1}.CorruptValue(v, 0)
	if math.Float64bits(again) != math.Float64bits(first) {
		t.Errorf("an evicted mask came back different: %v, first %v", again, first)
	}
}
