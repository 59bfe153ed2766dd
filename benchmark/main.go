// Command benchmark is the repository's benchmark. It runs one of four
// workloads (regen, population, serve, faults) for a timed window,
// checks every operation's output, and prints as its last line one JSON
// object: end-to-end metrics, or with -trace 1 per-layer metrics from a
// traced run. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
// Run it through run.sh, which builds it and accordiond first, from the
// repository root:
//
//	bash benchmark/run.sh --workload faults --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 7 --out result.json   # all four workloads
//
// Without -workload it runs each workload in a child process of its own,
// so caches start cold and peak memory belongs to one workload, and
// writes a result that `accordionhist append -bench` ingests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the line the benchmark prints last.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's result as -out records it.
type report struct {
	outcome
	N            int    `json:"n"` // ops timed in the window
	OutputSHA256 string `json:"output_sha256"`
	// SpanSelfMs sums the self time of the traced ops' spans by name.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "regen, population, serve or faults; empty runs all four, each in a child process")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 for a traced run: per-layer metrics and a span file")
		out     = flag.String("out", "", "also write the detailed result as JSON to this file")
		dir     = flag.String("dir", ".bench_build", "directory holding the accordiond binary; span files are written here")
	)
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		os.Exit(code)
	}
	if flag.NArg() > 0 {
		fail(2, "unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(2, "-seconds must be at least 1 and -trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		self, err := os.Executable()
		if err != nil {
			fail(1, "%v", err)
		}
		ok, err := runAll(ctx, self, *seed, *seconds, *trace, *dir, *out)
		if err != nil {
			fail(1, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		fail(2, "unknown workload %q", *name)
	}
	e := &env{seed: *seed, dir: *dir, scale: fullScale()}
	rep, err := runWorkload(ctx, workloads[i], e, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fail(1, "%s: %v", *name, err)
	}
	if *out != "" {
		if err := writeJSON(*out, resultDoc(*seed, *trace == 1, map[string]*report{*name: rep})); err != nil {
			fail(1, "%v", err)
		}
	}
	line, err := json.Marshal(rep.outcome)
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// runWorkload sets w up e.scale.setups times, keeping the last set-up,
// runs the timed window and returns the workload's report. A traced run
// also runs the layer sweep and writes the spans to e.dir.
func runWorkload(ctx context.Context, w workload, e *env, d time.Duration, traced bool) (*report, error) {
	var (
		inst   instance
		setups []float64
		total  time.Duration
	)
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	for len(setups) < e.scale.setups || total < e.scale.setupTime {
		if inst != nil {
			_, err := inst.close()
			if inst = nil; err != nil {
				return nil, err
			}
		}
		experiments.ResetCaches()
		t := time.Now()
		next, err := w.start(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t)
		inst, total, setups = next, total+took, append(setups, took.Seconds())
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win := runWindow(ctx, inst, w, d, rec)
	runtime.ReadMemStats(&after)
	peakKB, err := inst.close()
	if inst = nil; err != nil {
		return nil, err
	}
	for _, msg := range win.errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, msg)
	}
	ops := len(win.untracedMs) + len(win.tracedMs)
	if ops == 0 || (traced && (len(win.untracedMs) == 0 || len(win.tracedMs) == 0)) {
		return nil, errors.New("too few ops succeeded to report metrics")
	}
	rep := &report{
		outcome: outcome{
			Correct:   !win.wrong,
			Attempted: win.attempted,
			Failed:    win.failed,
			Metrics:   map[string]metric{},
		},
		N:            ops,
		OutputSHA256: fmt.Sprintf("%x", win.first),
	}
	if !traced {
		if peakKB == 0 {
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				return nil, err
			}
			peakKB = ru.Maxrss
		}
		rep.Metrics = map[string]metric{
			"setup_s":     {quantile(setups, 0.5), "s"},
			"items_per_s": {float64(win.items) / win.elapsed.Seconds(), "1/s"},
			"op_p50_ms":   {quantile(win.untracedMs, 0.5), "ms"},
			"op_p95_ms":   {quantile(win.untracedMs, 0.95), "ms"},
			"peak_rss_mb": {float64(peakKB) / 1024, "MB"},
		}
		return rep, nil
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	rep.SpanSelfMs = map[string]float64{}
	var opSelf, opTotal time.Duration
	for i, s := range spans {
		if s.op < 0 || s.end < s.start {
			continue
		}
		rep.SpanSelfMs[s.name] += ms(self[i])
		if s.parent < 0 {
			opSelf += self[i]
			opTotal += s.end - s.start
		}
	}
	layers, err := layerCosts(ctx, e, rec)
	if err != nil {
		return nil, fmt.Errorf("layer sweep: %w", err)
	}
	rep.Metrics = layers
	rep.Metrics["trace_overhead"] = metric{quantile(win.tracedMs, 0.5)/quantile(win.untracedMs, 0.5) - 1, "ratio"}
	rep.Metrics["runtime.alloc_mb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(ops), "MB"}
	rep.Metrics["op.unattributed_share"] = metric{opSelf.Seconds() / opTotal.Seconds(), "ratio"}

	path := filepath.Join(e.dir, "spans-"+w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(f, rec.snapshot()); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: spans written to %s\n", w.name, path)
	return rep, nil
}

// runAll runs every workload in a child process of its own, prints
// each metric, and writes the combined result to out. It reports
// whether every workload ran correctly without failures.
func runAll(ctx context.Context, self string, seed int64, seconds, trace int, dir, out string) (bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	reports := map[string]*report{}
	ok := true
	for _, w := range workloads {
		path := filepath.Join(dir, "result-"+w.name+".json")
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
		cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-dir", dir, "-out", path)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			ok = false
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the child failed before writing a result
		}
		var doc map[string]json.RawMessage
		rep := &report{}
		if err := json.Unmarshal(data, &doc); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if err := json.Unmarshal(doc[w.name], rep); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		reports[w.name] = rep
		fmt.Printf("%-10s correct=%t attempted=%d failed=%d n=%d sha256=%.16s\n",
			w.name, rep.Correct, rep.Attempted, rep.Failed, rep.N, rep.OutputSHA256)
		names := make([]string, 0, len(rep.Metrics))
		for k := range rep.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%-10s %-32s %14.6g %s\n", w.name, k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
		}
	}
	if out != "" {
		if err := writeJSON(out, resultDoc(seed, trace == 1, reports)); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// resultDoc is the detailed result: run facts at the top and one report
// per workload, every number in a nested object, which is the shape
// history.Record.AddBenchJSON flattens into metrics.
func resultDoc(seed int64, traced bool, reports map[string]*report) map[string]any {
	doc := map[string]any{
		"vcs_revision": revision(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"seed":         seed,
		"traced":       traced,
	}
	for name, rep := range reports {
		doc[name] = rep
	}
	return doc
}

func writeJSON(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// revision returns the commit checked out in the current directory,
// read from .git without running git, or "unknown".
func revision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	// A missing packed-refs file just means the ref is unknown.
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
