package core

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/rms"
)

// Execution is the end-to-end outcome of running a benchmark under one
// solved operating point: the CC/DC runtime's virtual makespan for the
// data-parallel phase and the actually measured output quality, both
// directly comparable against the operating point's predictions.
type Execution struct {
	Op OperatingPoint
	// VirtualTime is the runtime-simulated wall time of the parallel
	// phase in seconds (CC polling overhead included, the CC-serial
	// merge excluded).
	VirtualTime float64
	// MeasuredRelQuality is the executed kernel's quality relative to
	// the error-free default-size baseline — the measured counterpart
	// of Op.RelQuality.
	MeasuredRelQuality float64
	// Plan is the fault plan speculation implied (none for Safe).
	Plan fault.Plan
	// Stats carries the CC/DC runtime bookkeeping.
	Stats RunStats
}

// Execute runs the benchmark under the operating point: the kernel
// executes for real (with the Drop plan the Speculative flavor implies)
// to measure output quality, and the CC/DC runtime simulates the
// parallel phase's timing with Op.N data cores at Op.Freq. It is the
// closed loop behind the solver's predictions — tests assert both
// agree.
func (s *Solver) Execute(op OperatingPoint, seed int64) (Execution, error) {
	if op.Benchmark != s.Bench.Name() {
		return Execution{}, fmt.Errorf("core: operating point for %s executed on %s", op.Benchmark, s.Bench.Name())
	}
	if op.N < 1 || op.Freq <= 0 {
		return Execution{}, fmt.Errorf("core: degenerate operating point (N=%d, f=%g)", op.N, op.Freq)
	}

	// The error plan the flavor implies: Safe runs error-free; under
	// Speculative every infected task sees ~one timing error (Perr=1/e),
	// which the paper models as the Drop scenario its quality front was
	// measured with.
	var plan fault.Plan
	if op.Flavor == Speculative {
		plan = fault.DropQuarter()
		if s.Quality.SpeculativeFront() == s.Quality.Half {
			plan = fault.DropHalf()
		}
	}

	// 1. Algorithmic execution: the real kernel at the operating
	//    problem size under the implied plan.
	ctx := context.TODO() // Execute's signature carries no context
	res, err := rms.Run(ctx, s.Bench, op.Input, s.Bench.DefaultThreads(), plan, seed)
	if err != nil {
		return Execution{}, err
	}
	ref, err := rms.Reference(s.Bench, seed)
	if err != nil {
		return Execution{}, err
	}
	q, err := rms.Quality(ctx, s.Bench, res, ref)
	if err != nil {
		return Execution{}, err
	}
	base := s.Quality.Default.At(1)
	relQ := 0.0
	if base > 0 {
		relQ = q / base
	}

	// 2. Timing execution: the CC/DC runtime with Op.N data cores at
	//    the common frequency. Task work is expressed in cycles so that
	//    the analytic model's effective CPI (memory stalls included)
	//    carries over.
	const rounds = 4
	numTasks := rounds * op.N
	parCycles := op.ProblemSize * s.profile.OpsPerUnit * (1 - s.profile.SerialFrac) / s.profile.IPC(op.Freq)
	rt, err := NewRuntime(RuntimeConfig{
		Org:       HomogeneousSpatial,
		NumCC:     1 + op.N/32,
		NumDC:     op.N,
		DataFreq:  op.Freq,
		CtrlFreq:  s.fCC,
		TaskOps:   parCycles / float64(numTasks),
		NumTasks:  numTasks,
		PollEvery: op.ExecTime / 1000,
		Watchdog:  op.ExecTime,
	})
	if err != nil {
		return Execution{}, err
	}
	shared := NewSharedRegion([]float64{op.ProblemSize})
	stats, err := rt.Run(shared.View(), func(task int, in ReadOnlyView) float64 {
		return in.At(0)
	})
	if err != nil {
		return Execution{}, err
	}
	return Execution{
		Op:                 op,
		VirtualTime:        stats.Time,
		MeasuredRelQuality: relQ,
		Plan:               plan,
		Stats:              stats,
	}, nil
}
