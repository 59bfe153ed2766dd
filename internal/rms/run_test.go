package rms

import (
	"context"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// quietBench is a kernel whose Run and Quality allocate nothing, so any
// allocation the entry points make shows.
type quietBench struct{ stubBench }

func (*quietBench) Run(float64, int, fault.Plan, int64) (Result, error) { return Result{Ops: 1}, nil }
func (*quietBench) Quality(run, ref Result) (float64, error)            { return run.Ops, nil }

// TestRunQualityDisabledNoAlloc: with telemetry off, Run and Quality
// add nothing to the kernel's own call, in a traced context too, and
// record nothing.
func TestRunQualityDisabledNoAlloc(t *testing.T) {
	defer telemetry.SetEnabled(false)()
	telemetry.Reset()
	b := &quietBench{}
	ctx := telemetry.TraceContext(context.Background())
	plan := fault.DropQuarter()
	allocs := testing.AllocsPerRun(1000, func() {
		run, err := Run(ctx, b, 1, 4, plan, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Quality(ctx, b, run, run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run and Quality allocate %.1f objects per call pair with telemetry off, want 0", allocs)
	}
	if n := telemetry.GetHistogram("rms.stub.run").Count(); n != 0 {
		t.Fatalf("disabled Run recorded %d stage calls", n)
	}
}

// TestRunQualityStages: with telemetry on, each call, from any number
// of goroutines at once, lands in its kernel's stage, and the stage
// handles are made once per kernel.
func TestRunQualityStages(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	b := &quietBench{}
	ctx := context.Background()
	const workers, calls = 4, 3
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				run, err := Run(ctx, b, 1, 4, fault.Plan{}, 7)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := Quality(ctx, b, run, run); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := telemetry.GetHistogram("rms.stub.run").Count(); n != workers*calls {
		t.Errorf("rms.stub.run counted %d calls, want %d", n, workers*calls)
	}
	if n := telemetry.GetHistogram("quality.stub.score").Count(); n != workers*calls {
		t.Errorf("quality.stub.score counted %d calls, want %d", n, workers*calls)
	}
	if stagesOf("stub") != stagesOf("stub") {
		t.Error("stagesOf made a second set of stage handles for one kernel")
	}
}

// TestReferenceCacheBounded: a process asked for ever new workload
// seeds keeps at most refCacheMax references.
func TestReferenceCacheBounded(t *testing.T) {
	ResetReferenceCache()
	defer ResetReferenceCache()
	b := &stubBench{}
	for seed := int64(1); seed <= refCacheMax+20; seed++ {
		if _, err := Reference(b, seed); err != nil {
			t.Fatal(err)
		}
		if want := min(int(seed), refCacheMax); refCache.Len() != want {
			t.Fatalf("after %d seeds the memo holds %d references, want %d", seed, refCache.Len(), want)
		}
	}
}

// countedBench counts its Run calls and scores a run by its input.
type countedBench struct {
	stubBench
	mu   sync.Mutex
	runs int
}

func (c *countedBench) Run(input float64, threads int, plan fault.Plan, seed int64) (Result, error) {
	c.mu.Lock()
	c.runs++
	c.mu.Unlock()
	return Result{Output: []float64{input}, Ops: input}, nil
}

func (*countedBench) Quality(run, ref Result) (float64, error) { return run.Output[0], nil }

// TestRunMemo: concurrent callers of one run share one execution and
// its one score, the score outlives the Result, and a plan that carries
// a Ledger runs every time.
func TestRunMemo(t *testing.T) {
	ResetReferenceCache()
	defer ResetReferenceCache()
	b := &countedBench{}
	ctx := context.Background()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := RunMemo(ctx, b, 3, 4, fault.DropQuarter(), 7)
			if err != nil {
				t.Error(err)
				return
			}
			if q, err := run.Score(ctx, b, Result{}); err != nil || q != 3 {
				t.Errorf("Score = %g, %v; want 3", q, err)
			}
		}()
	}
	wg.Wait()
	if b.runs != 1 {
		t.Fatalf("4 callers of one run executed it %d times", b.runs)
	}
	run, err := RunMemo(ctx, b, 3, 4, fault.DropQuarter(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if run.res.Output != nil {
		t.Error("a scored memo entry still holds its Result")
	}
	if _, err := RunMemo(ctx, b, 3, 4, fault.DropQuarter(), 8); err != nil || b.runs != 2 {
		t.Errorf("another seed: %d runs, %v; want 2", b.runs, err)
	}
	led, err := fault.NewLedger(1, []fault.CoreRef{{}})
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.DropQuarter()
	plan.Ledger = led
	for want := 3; want <= 4; want++ {
		if _, err := RunMemo(ctx, b, 3, 4, plan, 7); err != nil || b.runs != want {
			t.Fatalf("ledger plan: %d runs, %v; want %d", b.runs, err, want)
		}
	}
	if n := runCache.Len(); n != 2 {
		t.Errorf("the memo holds %d runs, want 2 (ledger runs bypass it)", n)
	}
}

// TestReadyReference: the reference is readable without running it
// only once Reference has finished it.
func TestReadyReference(t *testing.T) {
	ResetReferenceCache()
	defer ResetReferenceCache()
	b := &countedBench{}
	if _, ok := ReadyReference(b, 7); ok {
		t.Fatal("ReadyReference found a reference nothing ran")
	}
	if _, err := Reference(b, 7); err != nil {
		t.Fatal(err)
	}
	ref, ok := ReadyReference(b, 7)
	if !ok || len(ref.Output) != 1 || b.runs != 1 {
		t.Errorf("ReadyReference = %v, %v after %d runs; want the one finished reference", ref, ok, b.runs)
	}
}
