package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// freshTelemetry turns telemetry on with every metric zeroed for the
// length of the test.
func freshTelemetry(t *testing.T) {
	t.Helper()
	t.Cleanup(telemetry.SetEnabled(true))
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
}

// TestWriteConvergence: convergence.json is {"series": [...]} and each
// series carries the nine documented keys.
func TestWriteConvergence(t *testing.T) {
	freshTelemetry(t)
	s := telemetry.GetSeries("test.convergence.json", "GHz")
	s.Observe(1.5)
	s.Observe(2.5)
	path := filepath.Join(t.TempDir(), "convergence.json")
	if err := writeConvergence(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("convergence.json is not a {\"series\": [...]} document: %v\n%s", err, data)
	}
	if len(doc) != 1 || doc["series"] == nil {
		t.Fatalf("convergence.json top level = %v, want only series", doc)
	}
	var found map[string]any
	for _, s := range doc["series"] {
		if s["name"] == "test.convergence.json" {
			found = s
		}
	}
	if found == nil {
		t.Fatal("series missing from convergence.json")
	}
	keys := []string{"name", "unit", "count", "mean", "std", "ci95_half_width", "rel_ci95", "min", "max"}
	if len(found) != len(keys) {
		t.Errorf("series has %d keys, want %d: %v", len(found), len(keys), found)
	}
	for _, key := range keys {
		if _, ok := found[key]; !ok {
			t.Errorf("convergence.json series missing key %q", key)
		}
	}
	if found["count"].(float64) != 2 || found["ci95_half_width"].(float64) <= 0 {
		t.Fatalf("series = %v, want count 2 and a positive ci95_half_width", found)
	}
}

// TestProgressLine: the -progress line reports done/target, an ETA,
// and per-series mean±CI.
func TestProgressLine(t *testing.T) {
	freshTelemetry(t)
	s := telemetry.GetSeries("test.progress", "W")
	for i := 0; i < 50; i++ {
		s.Observe(2.0)
	}
	line := progressLine(100, 2*time.Second)
	for _, want := range []string{"chips=50/100", "elapsed=2s", "eta=2s", "test.progress"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %s", want, line)
		}
	}
	// No target: no /target, no eta.
	line = progressLine(0, time.Second)
	if strings.Contains(line, "eta=") || strings.Contains(line, "/") {
		t.Errorf("untargeted progress line carries target fields: %s", line)
	}
}

// TestEtaFor pins the ETA guard table: no estimate without a target,
// without progress, at/past the target, or below timer resolution —
// and a sane linear extrapolation otherwise.
func TestEtaFor(t *testing.T) {
	cases := []struct {
		name    string
		done    int64
		target  int
		elapsed time.Duration
		want    time.Duration
		ok      bool
	}{
		{"no target", 5, 0, time.Second, 0, false},
		{"negative target", 5, -3, time.Second, 0, false},
		{"nothing done", 0, 100, time.Second, 0, false},
		{"zero elapsed", 10, 100, 0, 0, false},
		{"negative elapsed", 10, 100, -time.Second, 0, false},
		{"at target", 100, 100, time.Second, 0, false},
		{"past target", 150, 100, time.Second, 0, false},
		{"halfway", 50, 100, 10 * time.Second, 10 * time.Second, true},
		{"one done", 1, 4, time.Second, 3 * time.Second, true},
		{"overflow", 1, math.MaxInt32, math.MaxInt64, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := etaFor(tc.done, tc.target, tc.elapsed)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("etaFor(%d, %d, %s) = (%s, %v), want (%s, %v)",
					tc.done, tc.target, tc.elapsed, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestProgressLineNeverNaN: the edge cases the ETA guard exists for —
// zero chips done and sub-resolution wall time — must render clean
// lines with no NaN/Inf and no ETA.
func TestProgressLineNeverNaN(t *testing.T) {
	freshTelemetry(t)

	// Zero chips done, target set.
	for _, elapsed := range []time.Duration{0, time.Nanosecond, time.Second} {
		line := progressLine(100, elapsed)
		if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
			t.Fatalf("progress line with no chips contains NaN/Inf: %q", line)
		}
		if strings.Contains(line, "eta=") {
			t.Fatalf("progress line with no chips prints an ETA: %q", line)
		}
	}

	// Chips done but wall time below timer resolution.
	telemetry.GetSeries("test.progress.nan", "GHz").Observe(1.0)
	line := progressLine(100, 0)
	if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
		t.Fatalf("sub-resolution progress line contains NaN/Inf: %q", line)
	}
	if strings.Contains(line, "eta=") {
		t.Fatalf("sub-resolution progress line prints an ETA: %q", line)
	}
	// With real elapsed time the ETA returns.
	line = progressLine(100, time.Second)
	if !strings.Contains(line, "eta=") {
		t.Fatalf("progress line with progress and elapsed lost its ETA: %q", line)
	}
}
