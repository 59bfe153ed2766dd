package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/history"
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
// run that fails writing its output or a -verify-manifest file that is
// not a run document: a bare tool, or a manifest in the format that
// predates the run document.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "file")
	bare := filepath.Join(dir, "bare.json")
	oldManifest := filepath.Join(dir, "old.json")
	for path, body := range map[string]string{
		existing: "",
		bare:     `{"tool":"x"}`,
		oldManifest: `{"tool":"accordion","args":["fig1a"],"flags":{"j":"0"},"go_version":"go1.24.0",` +
			`"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","wall_ms":1000,` +
			`"artifacts":[{"name":"stdout:fig1a","sha256":"476f","bytes":10}]}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
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
		{[]string{"-events", "x", "table2"}, 2},
		{[]string{"-out", existing, "table2"}, 1},
		{[]string{"-verify-manifest", bare}, 1},
		{[]string{"-verify-manifest", oldManifest}, 1},
		{[]string{"-verify-manifest", filepath.Join(dir, "none.json")}, 1},
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

// TestObservabilityKeepsStdout: -trace, -telemetry, -manifest,
// -convergence and -history leave stdout byte-identical; the trace is
// one tree under the run stage with worker lanes and chip draws under
// fig5a; -telemetry's report counts the chips drawn; the history
// record carries each stage's self time and the hash of each stdout
// block, and equals the -manifest document of the same run; and the
// manifest verifies, saying that its three stdout hashes had no file
// to check.
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
		{"-convergence", "convergence.json"},
		{"-history", "hist", "-manifest", "doc.json"},
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
	checkRecord(t, filepath.Join(dir, "hist", "records.ndjson"), filepath.Join(dir, "doc.json"), ids)

	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatalf("-telemetry json report is not JSON: %v\n%s", err, report)
	}
	drawn := int64(-1)
	for _, c := range doc.Counters {
		if c.Name == "chip.factory.chips_drawn" {
			drawn = c.Value
		}
	}
	if drawn <= 0 {
		t.Errorf("-telemetry json reports chip.factory.chips_drawn = %d, want > 0", drawn)
	}

	stdout, stderr, code := accordion(t, dir, "-verify-manifest", "manifest.json")
	if code != 0 {
		t.Errorf("-verify-manifest exited %d:\n%s", code, stderr)
	}
	if want := "0 artifact files verified, 3 in-memory artifacts not checkable"; !bytes.Contains(stdout, []byte(want)) {
		t.Errorf("-verify-manifest printed %q, want it to say %q", stdout, want)
	}
}

// TestHistoryKeyFollowsJ: the record's parallelism is the worker-pool
// width, so on a two-thread process -j 1 appends under
// accordion/run/j1 and the default -j under accordion/run/j2.
func TestHistoryKeyFollowsJ(t *testing.T) {
	t.Setenv("GOMAXPROCS", "2")
	dir := t.TempDir()
	for i, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-j", "1"}, "accordion/run/j1"},
		{nil, "accordion/run/j2"},
	} {
		hist := filepath.Join(dir, fmt.Sprint("h", i))
		args := append(append([]string{"-history", hist}, tc.flags...), "fig1a")
		if _, stderr, code := accordion(t, dir, args...); code != 0 {
			t.Fatalf("accordion %q exited %d:\n%s", args, code, stderr)
		}
		recs, err := history.Store{Dir: hist}.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("accordion %q appended %d records, want 1", args, len(recs))
		}
		if got := recs[0].CompatKey(); got != tc.want {
			t.Errorf("accordion %q appended a record keyed %q, want %q", args, got, tc.want)
		}
	}
}

// checkRecord reads the one history record and checks that it carries
// the flag map, the self time of the run stage and of each runner, and
// a stdout:<id> hash per runner equal to that id's line in the
// experiments' digests.txt; and that the -manifest document written by
// the same run decodes to the same value.
func checkRecord(t *testing.T, path, manifest string, ids []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var line, indented any
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatalf("history record is not one JSON line: %v", err)
	}
	if err := json.Unmarshal(doc, &indented); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(line, indented) {
		t.Errorf("-history record and -manifest document of one run differ:\n%s\n%s", data, doc)
	}
	var rec history.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Flags["history"] != "hist" {
		t.Errorf("record's flags = %v, want the resolved flag map", rec.Flags)
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

	digests, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(digests)), "\n") {
		if id, sum, ok := strings.Cut(l, " "); ok {
			golden[id] = sum
		}
	}
	hashed := map[string]string{}
	for _, a := range rec.Artifacts {
		if id, ok := strings.CutPrefix(a.Name, "stdout:"); ok {
			hashed[id] = a.SHA256
		}
	}
	for _, id := range ids {
		if hashed[id] == "" || hashed[id] != golden[id] {
			t.Errorf("record's stdout:%s sha256 = %q, digests.txt has %q", id, hashed[id], golden[id])
		}
	}
}

// checkTrace reads a Chrome trace and checks its tree: one parentless
// run event, every parent present, one experiments.run.<id> per id
// under it, parallel.worker events each on a lane of its own, and
// chip.draw events under fig5a's runner, each carrying its seed and
// vddntv.
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
				Span   uint64   `json:"span"`
				Parent uint64   `json:"parent"`
				Seed   *int64   `json:"seed"`
				VddNTV *float64 `json:"vddntv"`
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
		if e.Name == "chip.draw" && (e.Args.Seed == nil || e.Args.VddNTV == nil) {
			t.Errorf("a chip.draw event lacks its seed or vddntv")
		}
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
