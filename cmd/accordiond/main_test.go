package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseFlags pins the defaults and every usage error main answers
// with exit status 2, including the drain deadline that would
// otherwise fail every queued job on the first SIGTERM.
func TestParseFlags(t *testing.T) {
	got, err := parseFlags(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	want := options{addr: "localhost:8344", queue: 16, retain: 64, drainTimeout: 60 * time.Second}
	if got != want {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}

	got, err = parseFlags([]string{"-addr", "127.0.0.1:0", "-queue", "2", "-workers", "3",
		"-j", "1", "-retain", "-1", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatalf("explicit flags: %v", err)
	}
	want = options{addr: "127.0.0.1:0", queue: 2, workers: 3, poolWidth: 1, retain: -1,
		drainTimeout: 5 * time.Second}
	if got != want {
		t.Errorf("explicit flags = %+v, want %+v", got, want)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-queue", "0"}, "-queue"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-j", "-1"}, "-j"},
		{[]string{"-drain-timeout", "0"}, "-drain-timeout"},
		{[]string{"-drain-timeout", "-1s"}, "-drain-timeout"},
		{[]string{"-retry-after", "1s"}, "retry-after"},
		{[]string{"-telemetry", "json"}, "telemetry"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		if _, err := parseFlags(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
