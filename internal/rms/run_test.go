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
