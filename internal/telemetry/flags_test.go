package telemetry

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseFlags registers the observability flag set on a fresh FlagSet
// and parses args into it.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRegisterFlags: one helper registers all three shared flags, each
// parsed into its own field.
func TestRegisterFlags(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		want        Flags
	}{
		{"telemetry", "json", Flags{Mode: "json"}},
		{"events", "out.ndjson", Flags{Events: "out.ndjson"}},
		{"atlas", "atlas", Flags{Atlas: "atlas"}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			if f := parseFlags(t, "-"+tc.flag, tc.value); *f != tc.want {
				t.Fatalf("parsed flags = %+v, want %+v", *f, tc.want)
			}
		})
	}
}

// TestFlagsUnsetNoop: with no flag set, or only -atlas (each binary's
// own export), Start leaves telemetry off and finish writes nothing.
func TestFlagsUnsetNoop(t *testing.T) {
	defer SetEnabled(false)()
	for _, args := range [][]string{nil, {"-atlas", t.TempDir()}} {
		finish, err := parseFlags(t, args...).Start()
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if On() {
			t.Fatalf("%q enabled telemetry", args)
		}
		var buf bytes.Buffer
		if err := finish(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%q reported %q", args, buf.String())
		}
	}
}

// TestFlagsStartReports: both -telemetry modes enable recording, and
// finish renders the report in the mode's format.
func TestFlagsStartReports(t *testing.T) {
	defer SetEnabled(false)()
	for mode, marker := range map[string]string{"text": "== telemetry", "json": `"counters"`} {
		SetEnabled(false)
		finish, err := parseFlags(t, "-telemetry", mode).Start()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !On() {
			t.Fatalf("%s mode did not enable telemetry", mode)
		}
		var buf bytes.Buffer
		if err := finish(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), marker) {
			t.Fatalf("%s report missing %q:\n%s", mode, marker, buf.String())
		}
	}
}

// TestFlagsStartInvalid rejects any -telemetry mode but text, json or
// empty.
func TestFlagsStartInvalid(t *testing.T) {
	if _, err := parseFlags(t, "-telemetry", "xml").Start(); err == nil {
		t.Fatal("Start accepted -telemetry xml")
	}
}

// TestFlagsEventsFile: -events alone turns telemetry on, and finish
// writes the event log to the file and no report.
func TestFlagsEventsFile(t *testing.T) {
	defer SetEnabled(false)()
	Reset()
	defer Reset()
	path := filepath.Join(t.TempDir(), "events.ndjson")
	finish, err := parseFlags(t, "-events", path).Start()
	if err != nil {
		t.Fatal(err)
	}
	if !On() {
		t.Fatal("-events did not enable telemetry")
	}
	NewEvent("chip.drawn").Int("seed", 3).Emit()
	var report bytes.Buffer
	if err := finish(&report); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if report.Len() != 0 {
		t.Fatalf("-events alone reported %q", report.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open dump: %v", err)
	}
	defer f.Close()
	evs, err := ParseNDJSON(f)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != "chip.drawn" {
		t.Fatalf("dump holds %+v", evs)
	}
}

// TestHistogramUnitRendering: a non-time histogram renders with its
// own unit in text output and carries it in the snapshot.
func TestHistogramUnitRendering(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogramWithUnit("test.unit.bytes", "B")
	h.reset()
	h.Observe(4096)
	if h.Unit() != "B" {
		t.Fatalf("unit = %q, want B", h.Unit())
	}
	s := Capture()
	var found bool
	for _, hs := range s.Histograms {
		if hs.Name == "test.unit.bytes" {
			found = true
			if hs.Unit != "B" {
				t.Fatalf("snapshot unit = %q, want B", hs.Unit)
			}
		}
	}
	if !found {
		t.Fatal("histogram missing from snapshot")
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4096B") {
		t.Fatalf("text render did not use the B unit:\n%s", buf.String())
	}
	// Default-unit histograms still render as durations.
	if GetHistogram("test.unit.default").Unit() != "ns" {
		t.Fatal("GetHistogram default unit is not ns")
	}
}
