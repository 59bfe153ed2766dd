package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// RunResult is one experiment's outcome under RunMany: the tables it
// produced, or the error that stopped it, plus the runner's wall time
// (a run document's runner.<id>.wall_ms).
type RunResult struct {
	ID     string
	Tables []*Table
	Err    error
	// Elapsed is the runner's experiments.run.<id> stage time. It is
	// zero while telemetry is off; the -manifest and -history paths and
	// accordiond, which read it, all run with telemetry on.
	Elapsed time.Duration
}

// runStages holds one experiments.run.<id> stage per registered
// experiment.
var runStages = func() map[string]*telemetry.Stage {
	m := make(map[string]*telemetry.Stage)
	for id := range Registry() {
		m[id] = telemetry.NewStage("experiments.run." + id)
	}
	return m
}()

// RunMany executes the named experiments concurrently on the parallel
// pool (bounded by parallel.Workers(), the -j flag) and returns their
// results in the order the ids were given — the rendered output is
// byte-identical to running them one at a time. Runner errors are
// collected per experiment in RunResult.Err rather than cancelling
// siblings; the returned error is non-nil only for an unknown id or a
// context cancellation.
//
// Each runner is an experiments.run.<id> stage begun under the pool
// worker's context and handed down through the runner's, so in a
// traced context chip draws, front measurements and solver sweeps nest
// run → runner → stage in the exported trace.
func RunMany(ctx context.Context, cfg Config, ids []string) ([]RunResult, error) {
	reg := Registry()
	for _, id := range ids {
		if _, ok := reg[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
	}
	// Hold the cache gate for the whole run so a concurrent
	// ResetCaches cannot interleave with the memo layers mid-flight.
	defer holdCaches()()
	return parallel.Map(ctx, len(ids), func(wctx context.Context, i int) (RunResult, error) {
		st := runStages[ids[i]].Begin(wctx)
		tables, err := reg[ids[i]](st.Context(wctx), cfg)
		return RunResult{ID: ids[i], Tables: tables, Err: err, Elapsed: st.End()}, nil
	})
}

// RunAll executes every registered experiment in presentation order.
func RunAll(ctx context.Context, cfg Config) ([]RunResult, error) {
	return RunMany(ctx, cfg, IDs())
}

// FirstErr returns the first per-experiment error in result order, or
// nil.
func FirstErr(results []RunResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, r.Err)
		}
	}
	return nil
}

// RenderAll renders every result's tables to w in order, stopping at
// the first render or runner error.
func RenderAll(w io.Writer, results []RunResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("experiments: %s: %w", r.ID, r.Err)
		}
		for _, t := range r.Tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}
