// Package parallel is the repository's bounded fan-out engine: a
// deterministic worker pool (ForEach, Map) and a memoizing singleflight
// cache (Cache) shared by every layer that exploits the evaluation's
// embarrassing parallelism — Monte-Carlo chip populations, per-benchmark
// quality fronts, solver sweeps, and the all-experiments driver.
//
// Determinism is the design constraint every primitive honors: work is
// identified by index, results land at their index, and no output
// depends on goroutine scheduling. A parallel run therefore produces
// byte-identical artifacts to a sequential one; only the wall clock
// changes.
//
// The fan-out width defaults to GOMAXPROCS and is overridable
// process-wide with SetWorkers (cmd/accordion's -j flag).
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Pool telemetry. Counters are self-gating (a disabled Add is one
// atomic load), so they are bumped unconditionally; the timing paths
// additionally gate their time.Now calls on telemetry.On().
var (
	telTasksSubmitted = telemetry.GetCounter("parallel.tasks.submitted")
	telTasksCompleted = telemetry.GetCounter("parallel.tasks.completed")
	telPanics         = telemetry.GetCounter("parallel.panics_recovered")
	telPoolWidth      = telemetry.GetGauge("parallel.pool.width")
	telQueueWait      = telemetry.GetHistogram("parallel.queue.wait_ns")
	telWorkerBusy     = telemetry.GetHistogram("parallel.worker.busy_ns")
	stWorker          = telemetry.NewStage("parallel.worker")
)

// workerOverride holds the explicit width set by SetWorkers; zero means
// "use GOMAXPROCS".
var workerOverride atomic.Int64

// Workers returns the effective fan-out width: the explicit SetWorkers
// override when one is set, else GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the process-wide fan-out width; n <= 0 restores
// the GOMAXPROCS default. It returns a function restoring the previous
// setting, for scoped use in tests and benchmarks.
func SetWorkers(n int) (restore func()) {
	prev := workerOverride.Load()
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
	return func() { workerOverride.Store(prev) }
}

// PanicError wraps a panic captured in a pool worker so it can be
// re-raised on the calling goroutine with the worker's stack attached.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // the panicking worker's stack trace
}

// Error formats the captured panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// ForEach runs fn(0..n-1), fanning out across min(Workers(), n)
// goroutines. Indices are claimed in ascending order. The first error
// (lowest failing index) cancels the remaining work and is returned; a
// nil ctx means context.Background(), and a ctx cancellation cancels
// the sweep and returns the ctx error. A panic in fn is captured,
// cancels the pool, and is re-raised on the caller's goroutine as a
// *PanicError.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	return ForEachCtx(ctx, n, func(_ context.Context, i int) error { return fn(i) })
}

// ForEachCtx is ForEach for work that wants the pool's per-worker
// context: each worker runs a parallel.worker stage, and in a traced
// context fn receives a context carrying it (a fresh lane under the
// caller's current stage), so stages begun inside fn nest under the
// worker that actually ran the task — the trace's worker attribution.
// Untraced, the worker context is ctx itself.
func ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers()
	if w > n {
		w = n
	}
	telTasksSubmitted.Add(int64(n))
	telPoolWidth.Set(int64(w))
	var poolStart time.Time
	if telemetry.On() {
		poolStart = time.Now()
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = -1 // lowest index that failed
		err    error
		caught *PanicError
	)
	next.Store(-1)
	record := func(i int, e error, pe *PanicError) {
		if pe != nil {
			telPanics.Inc()
		}
		mu.Lock()
		if pe != nil && caught == nil {
			caught = pe
		}
		if e != nil && (errAt < 0 || i < errAt) {
			errAt, err = i, e
		}
		mu.Unlock()
		cancel()
	}
	// finished distinguishes a normal return from a recovered panic
	// (where the named results stay zero), so the completion counter
	// never credits a panicked task.
	run := func(wctx context.Context, i int) (e error, finished bool) {
		defer func() {
			if r := recover(); r != nil {
				record(i, nil, &PanicError{Value: r, Stack: debug.Stack()})
			}
		}()
		return fn(wctx, i), true
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Worker attribution: every worker records its own lane so
			// the trace shows which goroutine ran which task stages.
			st := stWorker.BeginLane(ctx).Int("worker", int64(worker))
			wctx, tasks := st.Context(ctx), int64(0)
			defer func() { st.Int("tasks", tasks).End() }()
			for {
				i := int(next.Add(1))
				if i >= n || poolCtx.Err() != nil {
					return
				}
				var claimed time.Time
				if !poolStart.IsZero() {
					claimed = time.Now()
					telQueueWait.Observe(claimed.Sub(poolStart).Nanoseconds())
				}
				e, finished := run(wctx, i)
				if !claimed.IsZero() {
					telWorkerBusy.Observe(time.Since(claimed).Nanoseconds())
				}
				if e != nil {
					record(i, e, nil)
					return
				}
				if finished {
					tasks++
					telTasksCompleted.Inc()
				}
				// Pass through the scheduler between tasks. A worker
				// that never does keeps its P until sysmon's 10 ms
				// forced preemption, and with few Ps the GC's
				// fractional background mark worker waits that long to
				// run, so concurrent marks stretch out while the heap
				// overshoots its goal.
				runtime.Gosched()
			}
		}(k)
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
	if err != nil {
		return err
	}
	// Distinguish a caller-initiated cancellation from our own cleanup
	// cancel: only the parent context's error is reported.
	return ctx.Err()
}

// Map runs fn(0..n-1) under ForEach's pool and returns the results in
// index order, so the output is identical to a sequential loop. On any
// error the partial results are discarded and the (lowest-index) error
// returned.
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(ctx, n, func(_ context.Context, i int) (T, error) { return fn(i) })
}

// MapCtx is Map with ForEachCtx's per-worker context: in a traced
// context fn's ctx carries the running worker's stage.
func MapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, func(wctx context.Context, i int) error {
		v, e := fn(wctx, i)
		if e != nil {
			return e
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
