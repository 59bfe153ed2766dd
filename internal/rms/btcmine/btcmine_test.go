package btcmine

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/rms"
	"repro/internal/rms/rmstest"
)

func TestConformance(t *testing.T) {
	rmstest.Conformance(t, New())
}

func TestSolutionRate(t *testing.T) {
	b := New()
	res, err := b.Run(b.HyperInput(), 8, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With 12 target bits one nonce in 4096 solves on average.
	expected := res.Ops / 4096
	found := float64(len(res.Output))
	if math.Abs(found-expected) > 4*math.Sqrt(expected) {
		t.Errorf("found %v solutions, expected ~%v", found, expected)
	}
	// Every reported nonce actually solves.
	for _, v := range res.Output {
		if !solves(b, uint64(v)) {
			t.Fatalf("nonce %v does not solve", v)
		}
	}
}

// Strict weak scaling: per-thread work is independent of the thread
// count, and quality under Drop sheds exactly the dropped share.
func TestStrictWeakScaling(t *testing.T) {
	b := New()
	ref, err := rms.Reference(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := b.Run(b.DefaultInput(), 64, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := b.Run(b.DefaultInput(), 64, fault.DropHalf(), 1)
	if err != nil {
		t.Fatal(err)
	}
	qFull, _ := b.Quality(full, ref)
	qHalf, _ := b.Quality(half, ref)
	ratio := qHalf / qFull
	if math.Abs(ratio-0.5) > 0.12 {
		t.Errorf("Drop 1/2 retained %.2f of quality, want ~0.50 (exactly the surviving shards)", ratio)
	}
	// Ops scale exactly with the dropped fraction.
	if r := half.Ops / full.Ops; math.Abs(r-0.5) > 0.01 {
		t.Errorf("ops ratio %.3f", r)
	}
	// Thread count does not change the total work (strict partition).
	r16, err := b.Run(b.DefaultInput(), 16, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r16.Ops != full.Ops {
		t.Errorf("total work depends on thread count: %v vs %v", r16.Ops, full.Ops)
	}
}

func TestQualityLinearInVolume(t *testing.T) {
	b := New()
	ref, err := rms.Reference(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := func(input float64) float64 {
		res, err := b.Run(input, 64, fault.Plan{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := b.Quality(res, ref)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	q8, q16, q32 := q(8), q(16), q(32)
	if math.Abs(q16/q8-2) > 0.3 || math.Abs(q32/q16-2) > 0.3 {
		t.Errorf("quality not ~linear in volume: %.3f %.3f %.3f", q8, q16, q32)
	}
}

func TestCorruptedSubmissionsRejected(t *testing.T) {
	b := New()
	plan := fault.Plan{Mode: fault.Flip, Num: 1, Den: 2, Seed: 3}
	res, err := b.Run(b.DefaultInput(), 8, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Output {
		if !solves(b, uint64(v)) {
			t.Fatal("corrupted non-solution accepted")
		}
	}
	clean, err := b.Run(b.DefaultInput(), 8, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) >= len(clean.Output) {
		t.Error("corruption did not lose any submissions")
	}
}

func TestInvertRejected(t *testing.T) {
	if _, err := New().Run(16, 8, fault.Plan{Mode: fault.Invert, Num: 1, Den: 4}, 1); err == nil {
		t.Error("Invert accepted")
	}
}

func TestDigestDeterministicAndSpread(t *testing.T) {
	b := New()
	if b.headerWords().digest(42) != b.headerWords().digest(42) {
		t.Fatal("digest not deterministic")
	}
	// Crude avalanche check: adjacent nonces differ in many bits.
	diff := b.headerWords().digest(1000) ^ b.headerWords().digest(1001)
	bits := 0
	for ; diff != 0; diff &= diff - 1 {
		bits++
	}
	if bits < 16 {
		t.Errorf("adjacent digests differ in only %d bits", bits)
	}
}

// solves reports whether a nonce's digest clears b's difficulty target.
func solves(b *Benchmark, nonce uint64) bool {
	return b.headerWords().digest(nonce)>>(64-b.targetBits) == 0
}
