package rms

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/quality"
	"repro/internal/telemetry"
)

// ValueOwner is implemented by benchmarks whose output values have a
// known producing task: OwnerOfValue maps output value i (of nValues,
// under a threads-task decomposition) to the task index whose work
// determined it. Kernels with grid outputs (hotspot, srad, x264)
// implement it exactly; reduction-style kernels fall back to the block
// partition below.
type ValueOwner interface {
	OwnerOfValue(i, nValues, threads int) int
}

// OwnerOfValue returns the task index that produced output value i of
// nValues under b's decomposition into threads tasks. Benchmarks that
// implement ValueOwner answer exactly; otherwise values are charged by
// the contiguous block partition i*threads/nValues, the same owner rule
// the band-decomposed kernels use internally.
func OwnerOfValue(b Benchmark, i, nValues, threads int) int {
	if vo, ok := b.(ValueOwner); ok {
		return vo.OwnerOfValue(i, nValues, threads)
	}
	if nValues <= 0 || threads <= 0 {
		return 0
	}
	t := i * threads / nValues
	if t < 0 {
		t = 0
	}
	if t >= threads {
		t = threads - 1
	}
	return t
}

// Attribute decomposes a run's output distortion value by value,
// charges each value's contribution to the core that executed its
// producing task via the ledger, and returns the total distortion. The
// per-core contributions in led's Report sum to the returned total up
// to float rounding (the acceptance bound is 1e-9), because both sides
// are the same quality.Contributions decomposition.
//
// ref must be a fault-free run at the SAME input and thread count as
// run (not the hyper-accurate reference, whose output length can
// differ), so the distortion measured is exactly the fault-caused
// loss. led may be nil to only emit the quality.scored event.
func Attribute(b Benchmark, run, ref Result, threads int, led *fault.Ledger) (float64, error) {
	if threads <= 0 {
		return 0, fmt.Errorf("rms: attribute needs a positive thread count, got %d", threads)
	}
	contrib, err := quality.Contributions(run.Output, ref.Output)
	if err != nil {
		return 0, fmt.Errorf("rms: attributing %s: %w", b.Name(), err)
	}
	n := len(contrib)
	total := 0.0
	for i, c := range contrib {
		total += c
		if c != 0 {
			led.AddDistortion(OwnerOfValue(b, i, n, threads), c)
		}
	}
	telemetry.NewEvent("quality.scored").
		Str("bench", b.Name()).
		Int("values", int64(n)).
		Int("threads", int64(threads)).
		Float("distortion", total).
		Emit()
	return total, nil
}
