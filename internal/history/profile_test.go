package history

import (
	"errors"
	"testing"
)

// TestCaptureProfileHeap pins the capture end to end on the heap
// dimension (deterministic, unlike CPU sampling on a quiet 1-core
// runner): run an allocation-heavy fn, parse the capture, and require
// nonzero attributed bytes.
func TestCaptureProfileHeap(t *testing.T) {
	sum, err := CaptureProfile(func() error {
		churn(1 << 16)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || len(sum.Heap) == 0 || sum.HeapTotalBytes <= 0 {
		t.Fatalf("heap summary = %+v", sum)
	}
	if len(sum.Heap) > profileTopN {
		t.Errorf("top-N cap not applied: %d hotspots", len(sum.Heap))
	}
	for _, h := range sum.Heap {
		if h.Func == "" {
			t.Errorf("unnamed hotspot %+v", h)
		}
	}
}

// TestCaptureProfileCPURuns pins that the CPU bracket runs and
// returns without error; whether samples land depends on the host's
// timer, so only the structural outcome is asserted.
func TestCaptureProfileCPURuns(t *testing.T) {
	sum, err := CaptureProfile(func() error {
		x := 0.0
		for i := 0; i < 1_000_000; i++ {
			x += float64(i % 7)
		}
		if x < 0 {
			t.Error("unreachable")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("nil summary from a capture")
	}
}

// TestCaptureProfileKeepsRunError pins that fn's failure wins over
// any profiling complaint.
func TestCaptureProfileKeepsRunError(t *testing.T) {
	want := errors.New("experiment exploded")
	sum, err := CaptureProfile(func() error { return want })
	if !errors.Is(err, want) {
		t.Errorf("err = %v, want the run error", err)
	}
	_ = sum
}
