package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the accordion binary TestMain builds once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "accordion-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "accordion")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building accordion: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// accordion runs the binary in dir and returns its stdout, stderr and
// exit status.
func accordion(t *testing.T, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("accordion %q: %v", args, err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestExitCodes pins the statuses the flag checks promise: 2 for a
// usage mistake, with one "accordion: ..." line on stderr, and 1 for a
// run that fails writing its output.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "file")
	if err := os.WriteFile(existing, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-chips", "0", "table2"}, 2},
		{[]string{"-chips", "100001", "table2"}, 2},
		{[]string{"-j", "-1", "table2"}, 2},
		{[]string{"-format", "xml", "table2"}, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"-telemetry", "yaml", "table2"}, 2},
		// Removed flags are unknown flags.
		{[]string{"-history-check", "table2"}, 2},
		{[]string{"-selfprofile", "table2"}, 2},
		{[]string{"-history-margin", "0.5", "table2"}, 2},
		{[]string{"-out", existing, "table2"}, 1},
	} {
		stdout, stderr, code := accordion(t, dir, tc.args...)
		if code != tc.want {
			t.Errorf("accordion %q exited %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
			continue
		}
		if !bytes.Contains(stderr, []byte("accordion: ")) && !bytes.Contains(stderr, []byte("flag provided but not defined")) {
			t.Errorf("accordion %q: stderr names no error:\n%s", tc.args, stderr)
		}
	}
}

// TestObservabilityKeepsStdout: -trace, -telemetry, -manifest, -events,
// -convergence and -history leave stdout byte-identical; the trace is
// one tree under the run stage with worker lanes and chip draws under
// fig5a; -telemetry alone records domain events, since the event log
// follows the one switch; the history record carries each stage's self
// time; and the manifest verifies.
func TestObservabilityKeepsStdout(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"fig1a", "fig5a", "table2"}
	run := func(flags ...string) (stdout, stderr []byte) {
		t.Helper()
		stdout, stderr, code := accordion(t, dir, append(append([]string{"-j", "2"}, flags...), ids...)...)
		if code != 0 {
			t.Fatalf("accordion %q exited %d:\n%s", flags, code, stderr)
		}
		return stdout, stderr
	}
	plain, _ := run()
	if len(plain) == 0 {
		t.Fatal("plain run printed nothing")
	}
	var report []byte
	for _, flags := range [][]string{
		{"-trace", "trace.json"},
		{"-telemetry", "json"},
		{"-manifest", "manifest.json"},
		{"-events", "events.ndjson"},
		{"-convergence", "convergence.json"},
		{"-history", "hist"},
	} {
		got, stderr := run(flags...)
		if !bytes.Equal(got, plain) {
			t.Errorf("stdout with %q differs from the plain run", flags)
		}
		if flags[0] == "-telemetry" {
			report = stderr
		}
	}

	checkTrace(t, filepath.Join(dir, "trace.json"), ids)
	checkLayers(t, filepath.Join(dir, "hist", "records.ndjson"), ids)

	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatalf("-telemetry json report is not JSON: %v\n%s", err, report)
	}
	emitted := int64(-1)
	for _, c := range doc.Counters {
		if c.Name == "events.emitted" {
			emitted = c.Value
		}
	}
	if emitted <= 0 {
		t.Errorf("-telemetry json reports events.emitted = %d, want > 0", emitted)
	}

	if _, stderr, code := accordion(t, dir, "-verify-manifest", "manifest.json"); code != 0 {
		t.Errorf("-verify-manifest exited %d:\n%s", code, stderr)
	}
}

// checkLayers reads the one history record and checks that it carries
// the self time of the run stage and of each runner.
func checkLayers(t *testing.T, path string, ids []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("history record is not one JSON line: %v", err)
	}
	want := []string{"layer.run.self_ns"}
	for _, id := range ids {
		want = append(want, "layer.experiments.run."+id+".self_ns")
	}
	for _, name := range want {
		if v, ok := rec.Metrics[name]; !ok || v < 0 {
			t.Errorf("record's %s = %v, %v; want a non-negative self time", name, v, ok)
		}
	}
}

// checkTrace reads a Chrome trace and checks its tree: one parentless
// run event, every parent present, one experiments.run.<id> per id
// under it, parallel.worker events each on a lane of its own, and
// chip.draw events under fig5a's runner.
func checkTrace(t *testing.T, path string, ids []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  uint64 `json:"tid"`
			Args struct {
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	type ev struct {
		name        string
		parent, tid uint64
	}
	byID := map[uint64]ev{}
	count := map[string]int{}
	var root uint64
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		byID[e.Args.Span] = ev{e.Name, e.Args.Parent, e.Tid}
		count[e.Name]++
		if e.Args.Parent == 0 {
			if root != 0 || e.Name != "run" {
				t.Errorf("parentless event %q; want exactly one, named run", e.Name)
			}
			root = e.Args.Span
		}
	}
	// under reports whether event id descends from an event named name.
	under := func(id uint64, name string) bool {
		for e, ok := byID[id]; ok; e, ok = byID[e.parent] {
			if e.parent != 0 && byID[e.parent].name == name {
				return true
			}
		}
		return false
	}
	for id, e := range byID {
		if _, ok := byID[e.parent]; e.parent != 0 && !ok {
			t.Errorf("%s's parent %d is missing", e.name, e.parent)
		}
		if id != root && !under(id, "run") {
			t.Errorf("%s is not under the run event", e.name)
		}
		switch {
		case e.name == "parallel.worker" && e.tid == byID[e.parent].tid:
			t.Errorf("a parallel.worker event shares its parent's lane %d", e.tid)
		case e.name == "chip.draw" && !under(id, "experiments.run.fig5a"):
			t.Errorf("a chip.draw event is not under experiments.run.fig5a")
		}
	}
	for _, id := range ids {
		if count["experiments.run."+id] != 1 {
			t.Errorf("%d experiments.run.%s events, want 1", count["experiments.run."+id], id)
		}
	}
	if count["parallel.worker"] == 0 || count["chip.draw"] == 0 {
		t.Errorf("trace lacks worker lanes or chip draws: %v", count)
	}
	if t.Failed() {
		t.Logf("event counts: %s", strings.TrimSpace(fmt.Sprint(count)))
	}
}
