package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// TestPoolTelemetry: one ForEach sweep accounts for every task in the
// submitted/completed counters and the wait/busy histograms.
func TestPoolTelemetry(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	const n = 50
	err := ForEach(context.Background(), n, func(_ context.Context, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := telTasksSubmitted.Value(); got != n {
		t.Errorf("tasks.submitted = %d, want %d", got, n)
	}
	if got := telTasksCompleted.Value(); got != n {
		t.Errorf("tasks.completed = %d, want %d", got, n)
	}
	if got := telQueueWait.Count(); got != n {
		t.Errorf("queue.wait observations = %d, want %d", got, n)
	}
	if got := telWorkerBusy.Count(); got != n {
		t.Errorf("worker.busy observations = %d, want %d", got, n)
	}
	if got := telPoolWidth.Value(); got < 1 || got > int64(Workers()) {
		t.Errorf("pool.width = %d, want within [1, %d]", got, Workers())
	}
}

// TestPoolTelemetryError: failed tasks are not counted as completed.
func TestPoolTelemetryError(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	boom := errors.New("boom")
	err := ForEach(context.Background(), 8, func(_ context.Context, i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := telTasksCompleted.Value(); got >= 8 {
		t.Errorf("tasks.completed = %d, want < 8 (task 3 failed)", got)
	}
}

// TestPoolTelemetryPanic: a recovered worker panic increments the panic
// counter and is not credited as a completion.
func TestPoolTelemetryPanic(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the pool to re-raise the panic")
			}
		}()
		_ = ForEach(context.Background(), 4, func(_ context.Context, i int) error {
			if i == 0 {
				panic("kaboom")
			}
			return nil
		})
	}()
	if got := telPanics.Value(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	if got := telTasksCompleted.Value(); got >= 4 {
		t.Errorf("tasks.completed = %d, want < 4 (task 0 panicked)", got)
	}
}

// TestPoolTelemetryDisabled: with the switch off a sweep records
// nothing at all.
func TestPoolTelemetryDisabled(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	telemetry.SetEnabled(false)
	if err := ForEach(context.Background(), 16, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if telTasksSubmitted.Value() != 0 || telTasksCompleted.Value() != 0 ||
		telQueueWait.Count() != 0 || telWorkerBusy.Count() != 0 {
		t.Errorf("disabled pool recorded: submitted=%d completed=%d wait=%d busy=%d",
			telTasksSubmitted.Value(), telTasksCompleted.Value(),
			telQueueWait.Count(), telWorkerBusy.Count())
	}
}

// TestCacheTelemetry: a named cache reports hits, misses, and both
// eviction paths (failed computations and Reset).
func TestCacheTelemetry(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	c := Cache[int, int]{Name: "test.memo"}
	hits := telemetry.GetCounter("cache.test.memo.hits")
	misses := telemetry.GetCounter("cache.test.memo.misses")
	evictions := telemetry.GetCounter("cache.test.memo.evictions")

	if _, err := c.Do(1, func() (int, error) { return 10, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(1, func() (int, error) { t.Error("recompute"); return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits.Value(), misses.Value())
	}

	wantErr := errors.New("fail")
	if _, err := c.Do(2, func() (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want fail", err)
	}
	if evictions.Value() != 1 {
		t.Errorf("evictions after failed compute = %d, want 1", evictions.Value())
	}

	c.Reset()
	if evictions.Value() != 2 {
		t.Errorf("evictions after Reset = %d, want 2 (one retained entry dropped)", evictions.Value())
	}
}

// TestCacheUnnamedNoTelemetry: an unnamed cache registers nothing and
// stays silent.
func TestCacheUnnamedNoTelemetry(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	var c Cache[int, int]
	if _, err := c.Do(1, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if c.hits != nil || c.misses != nil || c.evicted != nil {
		t.Error("unnamed cache registered telemetry counters")
	}
}

// TestCacheMaxBound: a bounded cache holds at most Max entries, evicts
// the oldest inserted first (counted as evictions), recomputes an
// evicted key on its next call, and still delivers an evicted in-flight
// entry's value to the callers already waiting on it.
func TestCacheMaxBound(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	const bound = 3
	c := Cache[int, int]{Name: "test.bounded", Max: bound}
	hits := telemetry.GetCounter("cache.test.bounded.hits")
	evictions := telemetry.GetCounter("cache.test.bounded.evictions")
	var calls atomic.Int64
	square := func(k int) func() (int, error) {
		return func() (int, error) { calls.Add(1); return k * k, nil }
	}

	for k := 0; k < 10; k++ {
		if v, err := c.Do(k, square(k)); err != nil || v != k*k {
			t.Fatalf("Do(%d) = (%d, %v)", k, v, err)
		}
		if want := min(k+1, bound); c.Len() != want {
			t.Fatalf("after %d inserts Len = %d, want %d", k+1, c.Len(), want)
		}
	}
	if evictions.Value() != 10-bound {
		t.Errorf("evictions = %d, want %d", evictions.Value(), 10-bound)
	}
	for k := 0; k < 10; k++ {
		if _, ok := c.Get(k); ok != (k >= 10-bound) {
			t.Errorf("Get(%d) ok = %v: want only the %d newest keys kept", k, ok, bound)
		}
	}
	before := calls.Load()
	if v, err := c.Do(0, square(0)); err != nil || v != 0 || calls.Load() != before+1 {
		t.Fatalf("evicted key: Do = (%d, %v) after %d computes, want a fresh compute", v, err, calls.Load()-before)
	}
	if c.Len() != bound {
		t.Fatalf("Len = %d after re-inserting an evicted key, want %d", c.Len(), bound)
	}

	// Evict an entry while it is in flight, with a second caller
	// already waiting on it.
	c.Reset()
	telemetry.Reset()
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan int, 2)
	go func() {
		v, _ := c.Do(-1, func() (int, error) { close(started); <-release; return 7, nil })
		got <- v
	}()
	<-started
	go func() {
		v, _ := c.Do(-1, func() (int, error) { t.Error("waiter recomputed"); return 0, nil })
		got <- v
	}()
	for hits.Value() == 0 {
		runtime.Gosched()
	}
	for k := 0; k < bound; k++ {
		if _, err := c.Do(k, square(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(-1); ok || c.Len() != bound {
		t.Fatalf("in-flight entry not evicted: Len = %d", c.Len())
	}
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-got; v != 7 {
			t.Fatalf("caller of the evicted in-flight entry got %d, want 7", v)
		}
	}
	if _, ok := c.Get(-1); ok {
		t.Fatal("evicted in-flight entry came back after it completed")
	}
}
