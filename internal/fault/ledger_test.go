package fault

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/telemetry"
)

func testCores(n int) []CoreRef {
	cores := make([]CoreRef, n)
	for i := range cores {
		cores[i] = CoreRef{Core: 10 + i, Cluster: i / 2}
	}
	return cores
}

func TestNewLedgerValidates(t *testing.T) {
	if _, err := NewLedger(1, nil); err == nil {
		t.Fatal("NewLedger accepted zero cores")
	}
	if _, err := NewLedger(1, testCores(4)); err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
}

func TestLedgerAttribution(t *testing.T) {
	led, err := NewLedger(2014, testCores(4))
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	plan := DropQuarter()
	plan.Ledger = led

	// Tasks 0..7 round-robin over 4 cores; note two faults on task 0's
	// core (slot 0) and one on task 5's (slot 1).
	plan.Note(0)
	plan.Note(4) // same slot as task 0
	plan.Note(5)

	led.AddDistortion(0, 0.3)
	led.AddDistortion(4, 0.1) // slot 0 again -> 0.4 total
	led.AddDistortion(5, 0.1)
	led.AddDistortion(2, 0.0) // zero contribution is not recorded

	rep := led.Report()
	if rep.ChipSeed != 2014 || rep.EngagedCores != 4 || rep.Injections != 3 {
		t.Fatalf("report header = %+v", rep)
	}
	if math.Abs(rep.TotalDistortion-0.5) > 1e-15 {
		t.Fatalf("total distortion = %v, want 0.5", rep.TotalDistortion)
	}
	if len(rep.Cores) != 2 {
		t.Fatalf("report has %d cores, want 2", len(rep.Cores))
	}
	// Worst core first: slot 0 (core id 10) with 0.4.
	if rep.Cores[0].Core != 10 || rep.Cores[0].Faults != 2 {
		t.Fatalf("worst core = %+v", rep.Cores[0])
	}
	if math.Abs(rep.Cores[0].Share-0.8) > 1e-15 {
		t.Fatalf("worst core share = %v, want 0.8", rep.Cores[0].Share)
	}
	if math.Abs(rep.TopShare(1)-0.8) > 1e-15 {
		t.Fatalf("TopShare(1) = %v, want 0.8", rep.TopShare(1))
	}
	if math.Abs(rep.TopShare(5)-1.0) > 1e-15 {
		t.Fatalf("TopShare(5) = %v, want 1", rep.TopShare(5))
	}
	// Contributions must sum to the total exactly (shares to 1).
	var sum float64
	for _, c := range rep.Cores {
		sum += c.Distortion
	}
	if math.Abs(sum-rep.TotalDistortion) > 1e-12 {
		t.Fatalf("per-core sum %v != total %v", sum, rep.TotalDistortion)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.Injections != 3 || len(back.Cores) != 2 {
		t.Fatalf("JSON round trip = %+v", back)
	}
}

func TestNilLedgerSafe(t *testing.T) {
	var led *Ledger
	led.AddDistortion(0, 1)
	led.noteInjection(0)
	rep := led.Report()
	if rep.Injections != 0 || len(rep.Cores) != 0 {
		t.Fatalf("nil ledger report = %+v", rep)
	}
	// A plan without a ledger must Note without panicking, telemetry
	// off or on. With telemetry on it counts the note under its kind.
	plan, flip := DropHalf(), Plan{Mode: Flip, Num: 1, Den: 2}
	plan.Note(3)
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	defer telemetry.Reset()
	plan.Note(3)
	flip.Note(1)
	if n := telDrops.Value(); n != 1 {
		t.Errorf("fault.drops = %d after one ledger-less Drop note, want 1", n)
	}
	if n := telInjected.Value(); n != 1 {
		t.Errorf("fault.injected = %d after one ledger-less Flip note, want 1", n)
	}
	// Counting is one atomic add, so a -manifest or -trace run pays no
	// allocation per task for the fault counts.
	if allocs := testing.AllocsPerRun(1000, func() {
		plan.Note(3)
		flip.Note(3)
	}); allocs != 0 {
		t.Fatalf("ledger-less Note with telemetry on allocates %.1f per call, want 0", allocs)
	}
}

func TestReportTopShareEdges(t *testing.T) {
	var rep Report
	if s := rep.TopShare(3); s != 0 {
		t.Fatalf("empty TopShare = %v", s)
	}
	rep = Report{TotalDistortion: 1, Cores: []CoreReport{{Distortion: 1}}}
	if s := rep.TopShare(0); s != 0 {
		t.Fatalf("TopShare(0) = %v", s)
	}
}
