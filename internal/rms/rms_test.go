package rms

import (
	"math"
	"testing"
)

func TestDependenceString(t *testing.T) {
	if Linear.String() != "linear" || Complex.String() != "complex" {
		t.Error("dependence names wrong")
	}
}

func TestValidateHelpers(t *testing.T) {
	if err := ValidateInput("x", 1); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := ValidateInput("x", v); err == nil {
			t.Errorf("input %g accepted", v)
		}
	}
	if err := ValidateThreads("x", 4); err != nil {
		t.Error(err)
	}
	if err := ValidateThreads("x", 0); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestSweepGeometric(t *testing.T) {
	s := SweepGeometric(2, 32, 5)
	if len(s) != 5 {
		t.Fatalf("len %d", len(s))
	}
	if s[0] != 2 || s[4] < 31.999 || s[4] > 32.001 {
		t.Errorf("endpoints %v", s)
	}
	// Geometric: constant ratio.
	r := s[1] / s[0]
	for i := 2; i < 5; i++ {
		q := s[i] / s[i-1]
		if q < r*0.999 || q > r*1.001 {
			t.Fatalf("ratio drifts: %v", s)
		}
	}
	// Degenerate requests collapse to the low endpoint.
	if got := SweepGeometric(5, 4, 3); len(got) != 1 || got[0] != 5 {
		t.Errorf("inverted range: %v", got)
	}
	if got := SweepGeometric(2, 8, 1); len(got) != 1 {
		t.Errorf("n<2: %v", got)
	}
	if got := SweepGeometric(0, 8, 4); len(got) != 1 {
		t.Errorf("non-positive lo: %v", got)
	}
}
