// Package seedhygiene seeds RNG-sharing and seed-replay violations in
// pool worker closures, alongside the sanctioned per-task derivations.
package seedhygiene

import (
	"context"

	"repro/internal/mathx"
	"repro/internal/parallel"
)

// SharedState captures one generator and draws from it in every
// worker: a scheduling-dependent race.
func SharedState(ctx context.Context, n int) error {
	rng := mathx.NewRNG(1)
	return parallel.ForEach(ctx, n, func(_ context.Context, i int) error {
		_ = rng.Float64() // want `captured \*mathx.RNG "rng" used inside a pool closure`
		return nil
	})
}

// ReplayedSeed constructs a fresh generator per task but from a
// worker-invariant seed: every task replays one stream.
func ReplayedSeed(ctx context.Context, n int, seed int64) error {
	return parallel.ForEach(ctx, n, func(_ context.Context, i int) error {
		rng := mathx.NewRNG(seed) // want `mathx.NewRNG seeded with a worker-invariant value`
		_ = rng.Float64()
		return nil
	})
}

// SplitCapture is the sanctioned use of a captured generator: only its
// Split method is touched inside the closure.
func SplitCapture(ctx context.Context, n int) error {
	parent := mathx.NewRNG(1)
	return parallel.ForEach(ctx, n, func(_ context.Context, i int) error {
		rng := parent.Split(int64(i))
		_ = rng.Float64()
		return nil
	})
}

// SplitSeedDerivation derives the per-task seed arithmetically.
func SplitSeedDerivation(ctx context.Context, n int, seed int64) ([]float64, error) {
	return parallel.Map(ctx, n, func(_ context.Context, i int) (float64, error) {
		rng := mathx.NewRNG(mathx.SplitSeed(seed, int64(i)))
		return rng.Float64(), nil
	})
}

// IndexedSeeds draws the seed from a per-task table via the closure
// parameter; the argument mentions the task index, so it passes.
func IndexedSeeds(ctx context.Context, seeds []int64) error {
	return parallel.ForEach(ctx, len(seeds), func(_ context.Context, i int) error {
		rng := mathx.NewRNG(seeds[i])
		_ = rng.Float64()
		return nil
	})
}
