package telemetry

import (
	"bytes"
	"flag"
	"io"
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

// TestRegisterFlags: one helper registers both shared flags, each
// parsed into its own field.
func TestRegisterFlags(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		want        Flags
	}{
		{"telemetry", "json", Flags{Mode: "json"}},
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
