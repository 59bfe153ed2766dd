package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefaultAndOverride(t *testing.T) {
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	restore := SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() after SetWorkers(3) = %d", got)
	}
	restore()
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() after restore = %d, want %d", got, want)
	}
	restore = SetWorkers(-5)
	defer restore()
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() after SetWorkers(-5) = %d, want default %d", got, want)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		restore := SetWorkers(w)
		const n = 100
		var counts [n]atomic.Int64
		if err := ForEach(context.Background(), n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
			}
		}
		restore()
	}
}

func TestForEachEmptyAndNilContext(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if err := ForEach(nil, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	restore := SetWorkers(8)
	defer restore()
	errAt := func(i int) error { return fmt.Errorf("fail@%d", i) }
	err := ForEach(context.Background(), 50, func(i int) error {
		if i == 7 || i == 23 || i == 41 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail@7" {
		t.Fatalf("err = %v, want fail@7 (the lowest failing index, as a sequential loop would return)", err)
	}
}

func TestForEachErrorCancelsRemainingWork(t *testing.T) {
	restore := SetWorkers(2)
	defer restore()
	var ran atomic.Int64
	err := ForEach(context.Background(), 10000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n == 10000 {
		t.Fatal("error did not cancel the remaining work")
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEach(ctx, 5, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}

	// Cancel mid-sweep: no new indices are claimed after the
	// cancellation is observed, and the ctx error is reported.
	restore := SetWorkers(2)
	defer restore()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 100000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel: err = %v", err)
	}
	if n := ran.Load(); n == 100000 {
		t.Fatal("cancellation did not stop the sweep")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	restore := SetWorkers(4)
	defer restore()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
		if fmt.Sprint(pe.Value) != "kaboom" {
			t.Fatalf("PanicError.Value = %v", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack empty")
		}
	}()
	_ = ForEach(context.Background(), 20, func(i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
}

func TestMapOrdersResults(t *testing.T) {
	for _, w := range []int{1, 8} {
		restore := SetWorkers(w)
		got, err := Map(context.Background(), 64, func(i int) (int, error) {
			return i * i, nil
		})
		restore()
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	got, err := Map(context.Background(), 8, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got != nil {
		t.Fatalf("partial results leaked: %v", got)
	}
}

func TestCacheSingleflight(t *testing.T) {
	var c Cache[string, int]
	var computed atomic.Int64
	const callers = 32
	var wg sync.WaitGroup
	results := make([]int, callers)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err := c.Do("key", func() (int, error) {
				computed.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[k] = v
		}(k)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("caller saw %d", v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, ok := c.Get("key"); !ok || v != 42 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get found a missing key")
	}
}

func TestCacheDoesNotCacheFailures(t *testing.T) {
	var c Cache[int, string]
	var calls atomic.Int64
	fail := func() (string, error) {
		calls.Add(1)
		return "", errors.New("transient")
	}
	if _, err := c.Do(1, fail); err == nil {
		t.Fatal("expected error")
	}
	if _, err := c.Do(1, fail); err == nil {
		t.Fatal("expected error on retry")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("failing compute ran %d times, want 2 (failures must not be cached)", n)
	}
	v, err := c.Do(1, func() (string, error) { calls.Add(1); return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("Do after failures = (%q, %v)", v, err)
	}
	if v, _ := c.Do(1, fail); v != "ok" {
		t.Fatal("success was not cached")
	}
}

func TestCachePanicPropagatesAndForgets(t *testing.T) {
	var c Cache[int, int]
	mustPanic := func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic swallowed")
			}
		}()
		_, _ = c.Do(5, func() (int, error) { panic("bad compute") })
	}
	mustPanic()
	v, err := c.Do(5, func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("Do after panic = (%d, %v), want fresh computation", v, err)
	}
}

func TestCacheReset(t *testing.T) {
	var c Cache[int, int]
	var calls atomic.Int64
	one := func() (int, error) { calls.Add(1); return 1, nil }
	if _, err := c.Do(0, one); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if _, err := c.Do(0, one); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compute ran %d times across a Reset, want 2", n)
	}
}

// TestForEachYieldsBetweenTasks pins that a pool worker passes through
// the scheduler after every task: on one P, a goroutine that only
// yields must get to run between consecutive short tasks. Without the
// yield the worker holds the P until forced preemption, which starves
// the GC's fractional mark worker the same way.
func TestForEachYieldsBetweenTasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer SetWorkers(1)()
	var spins atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			spins.Add(1)
			runtime.Gosched()
		}
	}()
	for spins.Load() == 0 {
		runtime.Gosched()
	}
	const tasks = 100
	var last int64
	advanced := 0
	if err := ForEach(context.Background(), tasks, func(int) error {
		if n := spins.Load(); n != last {
			advanced++
			last = n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	<-done
	if advanced < tasks/2 {
		t.Fatalf("the spinning goroutine ran between %d of %d tasks, want at least %d", advanced, tasks, tasks/2)
	}
}

// TestCacheStaleFailureKeepsNewerEntry: when a computation fails after
// its entry was already dropped (here by Reset) and its key recomputed,
// the failure must not delete the newer entry.
func TestCacheStaleFailureKeepsNewerEntry(t *testing.T) {
	var c Cache[int, int]
	started, release := make(chan struct{}), make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		_, err := c.Do(1, func() (int, error) { close(started); <-release; return 0, errors.New("stale") })
		failed <- err
	}()
	<-started
	c.Reset()
	if v, err := c.Do(1, func() (int, error) { return 5, nil }); err != nil || v != 5 {
		t.Fatalf("Do after Reset = (%d, %v)", v, err)
	}
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("stale computation's error was lost")
	}
	if v, ok := c.Get(1); !ok || v != 5 {
		t.Fatalf("Get after the stale failure = (%d, %v), want the newer entry 5", v, ok)
	}
}
