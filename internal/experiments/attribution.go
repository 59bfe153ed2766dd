package experiments

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/rms"
	"repro/internal/telemetry"
)

var stAttribution = telemetry.NewStage("experiments.attribution")

// AttributionResult bundles one attributed benchmark run: the chip it
// executed on and the fault ledger's aggregated report.
type AttributionResult struct {
	Chip   *chip.Chip
	Bench  string
	Mode   string
	Report fault.Report
}

// RunAttribution executes one benchmark run under the paper's Drop 1/4
// plan on the representative chip with a fault-attribution ledger
// attached, and returns the per-core distortion breakdown: which cores
// the dropped tasks landed on and how much of the final quality loss
// each one caused. The benchmark is hotspot — its grid output maps
// exactly onto the row-band task decomposition, so the value-level
// attribution is precise rather than partitioned.
//
// The reference is the fault-free run at the same input and thread
// count (not the hyper-accurate reference), so the measured distortion
// is exactly the fault-caused loss, and the ledger's per-core
// contributions sum to the report's total within float rounding.
//
// RunAttribution is deliberately not a Registry experiment: it exists
// for the -atlas export path, and the default `all` run's stdout must
// not change.
func RunAttribution(ctx context.Context, cfg Config) (AttributionResult, error) {
	defer stAttribution.Begin(ctx).End()
	// Like RunMany: a concurrent ResetCaches waits for this run.
	defer holdCaches()()

	ch, err := RepresentativeChip(ctx, cfg)
	if err != nil {
		return AttributionResult{}, err
	}
	b, err := BenchmarkByName("hotspot")
	if err != nil {
		return AttributionResult{}, err
	}
	threads := b.DefaultThreads()
	// Engage cores the way the solver does: the most efficient cores at
	// the chip's near-threshold voltage, one per task slot.
	ids := ch.SelectCores(threads, ch.VddNTV(), chip.SelectEfficient)
	if len(ids) < threads {
		threads = len(ids)
	}
	cores := make([]fault.CoreRef, threads)
	for i, id := range ids[:threads] {
		cores[i] = fault.CoreRef{Core: id, Cluster: ch.Cores[id].Cluster}
	}
	led, err := fault.NewLedger(ch.Seed, cores)
	if err != nil {
		return AttributionResult{}, err
	}
	plan := fault.DropQuarter()
	plan.Seed = cfg.Seed
	plan.Ledger = led

	input := b.DefaultInput()
	run, err := b.Run(input, threads, plan, cfg.Seed)
	if err != nil {
		return AttributionResult{}, fmt.Errorf("experiments: attribution run: %w", err)
	}
	ref, err := b.Run(input, threads, fault.Plan{}, cfg.Seed)
	if err != nil {
		return AttributionResult{}, fmt.Errorf("experiments: attribution reference: %w", err)
	}
	if _, err := rms.Attribute(b, run, ref, threads, led); err != nil {
		return AttributionResult{}, err
	}
	return AttributionResult{
		Chip:   ch,
		Bench:  b.Name(),
		Mode:   plan.Mode.String(),
		Report: led.Report(),
	}, nil
}
