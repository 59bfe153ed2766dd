package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/history"
	"repro/internal/rms"
)

// binDir holds the accordiond binary the serve workload and the layer
// sweep start; TestMain builds it once.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "accordiond"), "repro/cmd/accordiond").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building accordiond: %v\n%s", err, out)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkCatalog fails unless got emits exactly the declared names, each
// with its declared unit.
func checkCatalog(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is not allowed", label, name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", label, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json declares %q", label, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: %s is declared in BENCHMARK.json but not emitted", label, name)
		}
	}
}

// TestSmoke runs every workload at a tiny size for one second and
// checks the emitted names against BENCHMARK.json, then does the same
// for a traced regen run, whose traced and untraced ops must render
// the same bytes.
func TestSmoke(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, ours)
	}
	e := &env{seed: 3, dir: binDir, scale: scale{
		setups:   1,
		regenIDs: []string{"fig1a", "fig5a", "table2"},
		fronts:   []string{"hotspot"},
		chips:    16,
		serveIDs: []string{"fig5a"},
	}}
	run := func(w workload, traced bool, want map[string]string) {
		label := fmt.Sprintf("%s traced=%t", w.name, traced)
		rep, err := runWorkload(context.Background(), w, e, time.Second, traced)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d", label, rep.Correct, rep.Failed, rep.Attempted)
		}
		checkCatalog(t, label, rep.Metrics, want)
	}
	for _, w := range workloads {
		run(w, false, endToEnd)
	}
	run(workloads[0], true, perLayer)
	if _, err := os.Stat(filepath.Join(binDir, "spans-regen.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

// opCounter sums Result.Ops over the Run calls it passes through.
type opCounter struct {
	rms.Benchmark
	mu    sync.Mutex
	calls int
	ops   float64
}

func (c *opCounter) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	res, err := c.Benchmark.Run(input, threads, plan, seed)
	if err == nil {
		c.mu.Lock()
		c.calls++
		c.ops += res.Ops
		c.mu.Unlock()
	}
	return res, err
}

// TestWrapperTransparent measures fronts through the timing wrapper:
// the model must equal the unwrapped one, every run must be recorded,
// and the wrapper's op total must equal the runs' own.
func TestWrapperTransparent(t *testing.T) {
	for _, name := range []string{"hotspot", "btcmine"} {
		b, err := experiments.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MeasureFronts(b, 5)
		if err != nil {
			t.Fatal(err)
		}
		rms.ResetReferenceCache()
		counter := &opCounter{Benchmark: b}
		rec := newRecorder()
		k := &timedKernel{Benchmark: counter, rec: rec, parent: -1, op: -1}
		got, err := core.MeasureFronts(k, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fronts measured through the wrapper differ from the unwrapped ones", name)
		}
		if k.ops != counter.ops {
			t.Errorf("%s: wrapper counted %g ops, the runs returned %g", name, k.ops, counter.ops)
		}
		runs := 0
		for _, s := range rec.snapshot() {
			if s.name == "rms."+name+".run" && s.end >= s.start {
				runs++
			}
		}
		if runs != counter.calls {
			t.Errorf("%s: %d run spans for %d runs", name, runs, counter.calls)
		}
	}
}

func TestSelfTimesAndTrace(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "op", start: 0, end: at(10), parent: -1},
		{name: "a", start: at(1), end: at(4), parent: 0},
		{name: "b", start: at(3), end: at(6), parent: 0},  // overlaps a
		{name: "c", start: at(8), end: at(12), parent: 0}, // runs past its parent
		{name: "a1", start: at(2), end: at(3), parent: 1},
		{name: "open", start: at(5), end: -1, parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(3), at(2), at(3), at(4), at(1), 0}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeChromeTrace(f, spans); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("%s: phase %q, want X", ev.Name, ev.Ph)
		}
		tids[ev.Name] = ev.Tid
	}
	if len(tids) != 5 {
		t.Errorf("trace has %d events, want the 5 closed spans", len(tids))
	}
	if tids["a"] == tids["b"] {
		t.Errorf("overlapping siblings a and b share track %d", tids["a"])
	}
	if tids["a1"] != tids["a"] || tids["a"] != tids["op"] {
		t.Errorf("nested spans op, a, a1 are on tracks %d, %d, %d, want one track", tids["op"], tids["a"], tids["a1"])
	}
}

// TestResultIngestsIntoHistory feeds a -out document through the same
// path as `accordionhist append -bench`.
func TestResultIngestsIntoHistory(t *testing.T) {
	rep := &report{
		outcome: outcome{Correct: true, Attempted: 3, Metrics: map[string]metric{"op_p50_ms": {12.5, "ms"}}},
		N:       2,
	}
	data, err := json.Marshal(resultDoc(7, false, map[string]*report{"regen": rep}))
	if err != nil {
		t.Fatal(err)
	}
	r := history.NewRecord("benchmark", "bench")
	if err := r.AddBenchJSON(data); err != nil {
		t.Fatal(err)
	}
	if r.GOMAXPROCS != runtime.GOMAXPROCS(0) || r.VCSRevision == "" {
		t.Errorf("record has gomaxprocs %d and revision %q", r.GOMAXPROCS, r.VCSRevision)
	}
	want := map[string]float64{
		"bench.nproc":                         float64(runtime.NumCPU()),
		"bench.seed":                          7,
		"bench.regen.correct":                 1,
		"bench.regen.attempted":               3,
		"bench.regen.failed":                  0,
		"bench.regen.n":                       2,
		"bench.regen.metrics.op_p50_ms.value": 12.5,
	}
	var missing []string
	for k, v := range want {
		if got, ok := r.Metrics[k]; !ok || got != v {
			missing = append(missing, fmt.Sprintf("%s=%g (got %g)", k, v, got))
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("record lacks %v; it has %v", missing, r.Metrics)
	}
}
