package mathx

import (
	"math"
	"testing"
)

// TestWelfordAgainstTwoPass checks the streaming accumulator against
// the textbook two-pass mean/variance on a fixed sample.
func TestWelfordAgainstTwoPass(t *testing.T) {
	vals := []float64{3.5, -1.25, 7, 0, 2.5, 2.5, 11.75, -4}
	var w Welford
	for _, v := range vals {
		w.Add(v)
	}

	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	var m2 float64
	for _, v := range vals {
		m2 += (v - mean) * (v - mean)
	}
	std := math.Sqrt(m2 / float64(len(vals)-1))

	if w.N() != int64(len(vals)) {
		t.Fatalf("N = %d, want %d", w.N(), len(vals))
	}
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Std()-std) > 1e-12 {
		t.Errorf("Std = %v, want %v", w.Std(), std)
	}
	wantCI := z95 * std / math.Sqrt(float64(len(vals)))
	if math.Abs(w.CI95Mean()-wantCI) > 1e-12 {
		t.Errorf("CI95Mean = %v, want %v", w.CI95Mean(), wantCI)
	}
	wantBand := z95 * std
	if math.Abs(w.Band95()-wantBand) > 1e-12 {
		t.Errorf("Band95 = %v, want %v", w.Band95(), wantBand)
	}
	if w.Min() != -4 || w.Max() != 11.75 {
		t.Errorf("Min/Max = %v/%v, want -4/11.75", w.Min(), w.Max())
	}
}

// TestWelfordDegenerate pins the under-determined cases the gate
// depends on: an empty accumulator, a single observation (CI on the
// mean is +Inf — one draw says nothing about its own noise — while
// Std and Band95 report zero), and a constant series (zero variance,
// so the band collapses and an identical re-run sits exactly on the
// mean).
func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Std() != 0 {
		t.Fatalf("zero value not zero: n=%d mean=%v std=%v", w.N(), w.Mean(), w.Std())
	}
	if !math.IsInf(w.CI95Mean(), 1) {
		t.Errorf("empty CI95Mean = %v, want +Inf", w.CI95Mean())
	}

	w.Add(42)
	if w.Mean() != 42 || w.Min() != 42 || w.Max() != 42 {
		t.Errorf("single obs mean/min/max = %v/%v/%v, want 42", w.Mean(), w.Min(), w.Max())
	}
	if !math.IsInf(w.CI95Mean(), 1) {
		t.Errorf("single-obs CI95Mean = %v, want +Inf", w.CI95Mean())
	}
	if w.Std() != 0 || w.Band95() != 0 {
		t.Errorf("single-obs Std/Band95 = %v/%v, want 0", w.Std(), w.Band95())
	}

	var c Welford
	for i := 0; i < 20; i++ {
		c.Add(7.5)
	}
	if c.Mean() != 7.5 {
		t.Errorf("constant mean = %v, want 7.5", c.Mean())
	}
	if c.Std() > 1e-12 || c.Band95() > 1e-12 {
		t.Errorf("constant Std/Band95 = %v/%v, want 0", c.Std(), c.Band95())
	}
}
