package main

import (
	"bytes"
	"strings"
	"testing"
)

const (
	committedStore      = "../../HISTORY"
	regressedStore      = "../../internal/history/testdata/regressed"
	regressedBenchStore = "../../internal/history/testdata/regressed_bench"
)

// TestExitCodes pins the documented exit statuses CI gates on: 0 for a
// passing store, 1 for either seeded regression, 2 for usage mistakes
// (removed flags included).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"check", "-dir", committedStore}, 0},
		{[]string{"check", "-dir", regressedStore}, 1},
		{[]string{"check", "-dir", regressedBenchStore}, 1},
		{[]string{"check", "-dir", committedStore, "-margin", "0.5"}, 2},
		{[]string{"append", "-dir", "x", "-tool", "x", "-manifest", "m.json"}, 2},
		{[]string{"check"}, 2},
		{[]string{"report"}, 2},
		{[]string{"list"}, 2},
		{[]string{"append", "-tool", "x"}, 2},
		{[]string{"render", "-dir", committedStore}, 2},
		{[]string{"report", "-dir", committedStore, "-format", "html"}, 2},
		{nil, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, got, tc.want, stdout.String(), stderr.String())
		}
	}
}

// TestReportAndListWriteText checks the two read-only subcommands
// render the committed store as non-empty text on stdout, and that the
// report trends the newest record's benchmark metrics: the committed
// store ends with two population runs of the benchmark.
func TestReportAndListWriteText(t *testing.T) {
	for _, sub := range []string{"report", "list"} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{sub, "-dir", committedStore}, &stdout, &stderr); got != 0 {
			t.Fatalf("%s exited %d: %s", sub, got, stderr.String())
		}
		if strings.TrimSpace(stdout.String()) == "" {
			t.Errorf("%s wrote no text", sub)
		}
		if sub == "report" && !strings.Contains(stdout.String(), "bench.population.metrics.op_p50_ms.value") {
			t.Errorf("report does not trend the population workload's op_p50_ms:\n%s", stdout.String())
		}
	}
}
