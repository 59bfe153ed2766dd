package canneal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestRunGolden pins Run's exact output bits and op counts across every
// fault mode, so a change to the annealing loop or its swap scoring
// cannot move a single accept decision unnoticed. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/rms/canneal.
func TestRunGolden(t *testing.T) {
	b := newBench(t)
	modes := append([]fault.Mode{fault.None, fault.Drop, fault.Invert}, fault.CorruptionModes()...)
	var buf bytes.Buffer
	run := func(mode fault.Mode, num, den int, input float64, threads int, seed int64) {
		t.Helper()
		plan, err := fault.NewPlan(mode, num, den, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(input, threads, plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "mode=%s frac=%d/%d input=%g threads=%d seed=%d output=%x ops=%g\n",
			mode, num, den, input, threads, seed, res.Output, res.Ops)
	}
	for _, mode := range modes {
		for _, den := range []int{4, 2} {
			for _, seed := range []int64{1, 2} {
				for _, threads := range []int{8, 64} {
					run(mode, 1, den, 16, threads, seed)
				}
			}
		}
	}
	run(fault.None, 0, 1, b.DefaultInput(), b.DefaultThreads(), 1)

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
		t.Errorf("canneal runs drifted from their golden output; if intentional, regenerate with UPDATE_GOLDEN=1\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), string(want))
	}
}
