package rmstest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/rms"
)

// Golden pins b's exact output bits and op counts against
// testdata/golden_run.txt: every fault mode at fractions 1/4 and 1/2,
// seeds 1 and 2 and 8 and 64 threads at input, then one fault-free run
// at b's defaults. An output longer than 8 values is written as the
// SHA-256 of its little-endian bits, and a kernel that rejects the
// Invert mode gets one line saying so. Regenerate with UPDATE_GOLDEN=1.
func Golden(t *testing.T, b rms.Benchmark, input float64) {
	t.Helper()
	modes := append([]fault.Mode{fault.None, fault.Drop, fault.Invert}, fault.CorruptionModes()...)
	var buf bytes.Buffer
	run := func(mode fault.Mode, num, den int, input float64, threads int, seed int64) error {
		t.Helper()
		plan, err := fault.NewPlan(mode, num, den, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(input, threads, plan, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "mode=%s frac=%d/%d input=%g threads=%d seed=%d output=%s ops=%g\n",
			mode, num, den, input, threads, seed, formatOutput(res.Output), res.Ops)
		return nil
	}
	for _, mode := range modes {
		if mode == fault.Invert {
			if _, err := b.Run(input, 8, fault.Plan{Mode: mode, Num: 1, Den: 4}, 1); err != nil {
				fmt.Fprintf(&buf, "mode=%s rejected\n", mode)
				continue
			}
		}
		for _, den := range []int{4, 2} {
			for _, seed := range []int64{1, 2} {
				for _, threads := range []int{8, 64} {
					if err := run(mode, 1, den, input, threads, seed); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := run(fault.None, 0, 1, b.DefaultInput(), b.DefaultThreads(), 1); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden_run.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s runs drifted from their golden output; if intentional, regenerate with UPDATE_GOLDEN=1\n--- got ---\n%s\n--- want ---\n%s",
			b.Name(), buf.String(), string(want))
	}
}

// formatOutput writes a short output as its hex floats and a long one
// as its length and SHA-256.
func formatOutput(out []float64) string {
	if len(out) <= 8 {
		return fmt.Sprintf("%x", out)
	}
	h := sha256.New()
	var word [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	return fmt.Sprintf("%d:sha256:%x", len(out), h.Sum(nil))
}
