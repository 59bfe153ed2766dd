// Command accordion regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	accordion [-seed N] [-chip N] [-chips N] [-j N] [-telemetry text|json]
//	          [-trace FILE] [-events FILE] [-atlas DIR] [-manifest FILE]
//	          [-convergence FILE] [-progress] [-pprof addr]
//	          [-history DIR]
//	          [list | all | <experiment id>...]
//	accordion -verify-manifest FILE
//
// Experiment ids correspond to the paper's tables and figures: fig1a,
// fig1b, fig1c, fig2, fig4, fig5a, fig5b, fig6, fig7, table2, table3,
// headline, corruption, baselines. `list` prints the available ids;
// `all` (or no argument) runs everything in presentation order.
//
// Independent experiments run concurrently on the shared worker pool
// (-j, default GOMAXPROCS) and share the memoized model caches; the
// output is byte-identical to a sequential -j 1 run, in the order the
// ids were given.
//
// Observability: telemetry has one switch, which -telemetry, -events,
// -trace, -manifest, -convergence, -progress, -history and -pprof each
// turn on. -telemetry text|json dumps the report (pool utilization,
// cache hit rates, fault counts, chip-draw latency, per-runner stage
// timings, convergence series) to stderr after the run, so stdout
// stays a clean artifact stream. -events FILE
// writes the simulation-domain event log (chip drawn, front measured,
// quality scored, atlas built, ledger-attributed faults) as NDJSON.
// -trace FILE records every stage of the run as a hierarchy (run →
// runner → worker → chip draw / front measurement / solver sweep) and
// exports it as Chrome trace-event JSON loadable in Perfetto
// (https://ui.perfetto.dev).
// -manifest FILE writes the run document (internal/history's Record)
// as indented JSON: the full flag set, toolchain and VCS identity,
// the run's metrics (per-runner wall times, cache hit rates, the
// telemetry snapshot), the first runner error when one failed, and a
// SHA-256 of every artifact the run wrote, each runner's stdout block
// included; -verify-manifest FILE rejects a file that is not a run
// document, re-hashes the files it lists and exits non-zero on any
// mismatch (paths resolve relative to the current directory, as
// recorded). It says how many files it checked and how many in-memory
// artifacts it could not.
// -convergence FILE runs the experiments under a monitored context, so
// each distinct chip drawn feeds the telemetry series of its summary
// metrics, and dumps their streaming mean/CI95 statistics as JSON;
// -progress additionally prints a chips-done/ETA/CI line to stderr
// every two seconds.
// -atlas DIR runs the hotspot fault-attribution pass on the
// representative chip and writes the per-chip spatial export set —
// atlas.json, atlas.csv, one atlas_<metric>.svg heatmap per metric,
// and ledger.json with the per-core distortion breakdown. -pprof
// <addr> serves net/http/pprof plus the /telemetryz JSON endpoint, the
// /metricsz Prometheus text endpoint, and the /eventsz NDJSON
// event-log endpoint for live scraping. With all of these off, the run
// is byte-identical to one without the observability tier.
//
// Run history: -history DIR appends the same run document to the
// store's records.ndjson, one line per completed run — runner wall
// times, telemetry counters and quantiles, cache hit rates,
// convergence CI widths and artifact hashes, all stamped with the
// binary's VCS revision and the worker-pool width (-j), which is the
// record's parallelism. It also traces the run and records each
// stage's self time as layer.<stage>.self_ns (rms.<kernel>.run,
// quality.<kernel>.score, core.front.cell, ...), so a record says
// which layer the run spent its time in and which bytes it produced.
// `accordionhist check` gates the store's newest record against its
// baseline window (see the README's "Run history & regression gate"
// section). Function-level profiles stay one toolchain command away:
//
//	go test -run '^$' -bench 'BenchmarkRunAllSequential$' -benchtime 1x -cpuprofile cpu.out -o repro.test .
//	go tool pprof -top repro.test cpu.out
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/atlas"
	"repro/internal/experiments"
	"repro/internal/history"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// stRun is the whole run's stage: the root of a -trace file.
var stRun = telemetry.NewStage("run")

func main() {
	var (
		seed       = flag.Int64("seed", 1, "master seed for workloads and fault streams")
		chip       = flag.Int64("chip", 2014, "seed of the representative chip sample")
		chips      = flag.Int("chips", 20, "Monte-Carlo population size (the paper samples 100)")
		workers    = flag.Int("j", 0, "worker-pool width for experiments and model sweeps (0 = GOMAXPROCS)")
		format     = flag.String("format", "text", "output format: text or csv")
		outDir     = flag.String("out", "", "also write each experiment to <out>/<id>.<ext>")
		obs        = telemetry.RegisterFlags(flag.CommandLine)
		tracePath  = flag.String("trace", "", "record stages and write a Chrome trace-event JSON file (open in Perfetto)")
		maniPath   = flag.String("manifest", "", "write the run document (flags, versions, metrics, artifact SHA-256s) as indented JSON")
		convPath   = flag.String("convergence", "", "monitor Monte-Carlo convergence and write the statistics as JSON")
		progress   = flag.Bool("progress", false, "print chips-done/ETA/CI-width progress lines to stderr during the run")
		verifyMani = flag.String("verify-manifest", "", "re-hash the files a run document lists and exit non-zero on mismatch")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, /telemetryz, /metricsz and /eventsz on this address (e.g. localhost:6060)")
		histDir    = flag.String("history", "", "append the run document (telemetry, convergence, runner timings, per-stage self times, artifact SHA-256s) to this run-history store")
	)
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "accordion: "+format+"\n", args...)
		os.Exit(code)
	}

	if *verifyMani != "" {
		rec, err := history.ReadRecord(*verifyMani)
		if err != nil {
			fail(1, "%v", err)
		}
		checked, errs := rec.VerifyArtifacts()
		if len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "accordion: verify-manifest: %v\n", e)
			}
			fail(1, "%d of %d artifact files failed verification", len(errs), checked)
		}
		fmt.Printf("manifest %s: %d artifact files verified, %d in-memory artifacts not checkable\n",
			*verifyMani, checked, len(rec.Artifacts)-checked)
		return
	}

	const maxChips = 100000
	switch {
	case *chips < 1:
		fail(2, "-chips must be at least 1, got %d", *chips)
	case *chips > maxChips:
		fail(2, "-chips %d exceeds the %d-chip sanity cap", *chips, maxChips)
	case *workers < 0:
		fail(2, "-j must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	case *format != "text" && *format != "csv":
		fail(2, "unknown format %q (want text or csv)", *format)
	}
	parallel.SetWorkers(*workers)

	finishObs, err := obs.Start()
	if err != nil {
		fail(2, "%v", err)
	}
	// The run document reports cache hit rates and runner times, a
	// trace is made of stage calls, and convergence statistics are
	// telemetry series, all of which telemetry records, so recording
	// must be on even without a -telemetry dump.
	monitor := *convPath != "" || *progress || *histDir != ""
	if *pprofAddr != "" || *maniPath != "" || *tracePath != "" || monitor {
		telemetry.SetEnabled(true)
	}
	if *pprofAddr != "" {
		// net/http/pprof registered its handlers on the default mux at
		// import; /telemetryz, /metricsz and /eventsz join them there.
		http.Handle("/telemetryz", telemetry.Handler())
		http.Handle("/metricsz", telemetry.MetricsHandler())
		http.Handle("/eventsz", telemetry.EventsHandler())
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: pprof server: %v\n", err)
			}
		}()
	}

	cfg := experiments.Config{Seed: *seed, ChipSeed: *chip, Chips: *chips}

	args := flag.Args()
	if len(args) == 1 && args[0] == "list" {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if len(args) == 0 || (len(args) == 1 && args[0] == "all") {
		args = experiments.IDs()
	}

	ctx := context.Background()
	if *tracePath != "" || *histDir != "" {
		// A -history record's per-stage self times are read from the
		// trace.
		ctx = telemetry.TraceContext(ctx)
	}
	if monitor {
		ctx = telemetry.MonitorContext(ctx)
	}
	run := stRun.Begin(ctx).Int("experiments", int64(len(args)))
	ctx = run.Context(ctx)

	// rec is the run document: -manifest writes it and -history appends
	// it. Its parallelism is the pool width, so -j sets its compat key.
	rec := history.NewRecord("accordion", "run")
	rec.GOMAXPROCS = parallel.Workers()
	rec.SetFlags(flag.CommandLine)
	start := time.Now()
	stopProgress := func() {}
	if *progress {
		done := make(chan struct{})
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					fmt.Fprintf(os.Stderr, "accordion: %s\n", progressLine(*chips, time.Since(start)))
				}
			}
		}()
		stopProgress = func() {
			close(done)
			<-finished
			fmt.Fprintf(os.Stderr, "accordion: %s\n", progressLine(*chips, time.Since(start)))
		}
	}

	// addFile records a file the run wrote in the run document.
	addFile := func(name, path string) {
		if err := rec.AddArtifactFile(name, path); err != nil {
			fmt.Fprintf(os.Stderr, "accordion: %v\n", err)
		}
	}
	// finishObservability ends the run stage, writes every enabled
	// observability artifact and the -telemetry report, and fills and
	// writes the run document; called on the error path too, so a
	// failed run still leaves its trace, convergence report and
	// manifest (with the error as its note) behind.
	finishObservability := func(results []experiments.RunResult) {
		stopProgress()
		run.End()
		if *tracePath != "" {
			if err := writeTrace(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: trace: %v\n", err)
			} else {
				addFile("trace.json", *tracePath)
			}
		}
		if *convPath != "" {
			if err := writeConvergence(*convPath); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: convergence: %v\n", err)
			} else {
				addFile("convergence.json", *convPath)
			}
		}
		// The atlas export runs before the event dump so its atlas.built
		// and fault-provenance events land in events.ndjson too.
		if obs.Atlas != "" {
			paths, err := writeAtlas(ctx, obs.Atlas, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "accordion: atlas: %v\n", err)
			}
			for _, p := range paths {
				addFile(filepath.Base(p), p)
			}
		}
		if err := finishObs(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "accordion: %v\n", err)
		} else if obs.Events != "" {
			addFile("events.ndjson", obs.Events)
		}
		harvest(&rec, results, time.Since(start))
		if *maniPath != "" {
			if err := rec.WriteFile(*maniPath); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: manifest: %v\n", err)
			}
		}
	}

	results, err := experiments.RunMany(ctx, cfg, args)
	if err != nil {
		fail(2, "%v (try `accordion list`)", err)
	}
	if err := experiments.FirstErr(results); err != nil {
		// A partial run still has useful observability (which stage
		// died, what the caches did first); emit before exiting.
		finishObservability(results)
		fail(1, "%v", err)
	}
	ext := "txt"
	if *format == "csv" {
		ext = "csv"
	}
	for _, r := range results {
		// Render through a buffer so the run document hashes exactly
		// the bytes stdout received.
		var buf bytes.Buffer
		for _, t := range r.Tables {
			render := t.Render
			if *format == "csv" {
				render = t.RenderCSV
			}
			if err := render(&buf); err != nil {
				fail(2, "%v", err)
			}
		}
		if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
			fail(1, "%v", err)
		}
		rec.AddArtifactBytes("stdout:"+r.ID, buf.Bytes())
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fail(1, "%v", err)
			}
			path := filepath.Join(*outDir, r.ID+"."+ext)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				fail(1, "%v", err)
			}
			if err := rec.AddArtifactFile(r.ID+"."+ext, path); err != nil {
				fail(1, "%v", err)
			}
		}
	}
	finishObservability(results)

	if *histDir != "" {
		st := history.Store{Dir: *histDir}
		if err := st.Append(rec); err != nil {
			fail(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "accordion: appended %s record (%d metrics) to %s\n",
			rec.CompatKey(), len(rec.Metrics), st.Path())
	}
}

// harvest fills the run document once the run is over: its wall time,
// the first runner error as its note, per-runner wall times, the full
// telemetry snapshot (cache hit rates and convergence series
// included), and each traced stage's self time. A trace that dropped
// events would understate some layers, so its self times are left
// out.
func harvest(rec *history.Record, results []experiments.RunResult, wall time.Duration) {
	rec.WallMs = wall.Milliseconds()
	if err := experiments.FirstErr(results); err != nil {
		rec.Note = err.Error()
	}
	for _, r := range results {
		if r.Err == nil {
			rec.Set("runner."+r.ID+".wall_ms", float64(r.Elapsed.Milliseconds()))
		}
	}
	rec.AddTelemetry(telemetry.Capture())
	if telemetry.GetGauge("trace.dropped").Value() == 0 {
		for name, d := range telemetry.SelfTimes() {
			rec.Set("layer."+name+".self_ns", float64(d.Nanoseconds()))
		}
	}
}

// writeTrace exports every recorded trace event as Chrome trace-event
// JSON.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if n := telemetry.GetGauge("trace.dropped").Value(); n > 0 {
		fmt.Fprintf(os.Stderr, "accordion: trace: buffer overflow dropped %d events\n", n)
	}
	return f.Close()
}

// writeAtlas runs the fault-attribution pass on the representative
// chip and writes the spatial export set (atlas.json, atlas.csv, the
// SVG heatmaps) plus the per-core distortion ledger into dir. It
// returns every path written so the run document can hash them.
func writeAtlas(ctx context.Context, dir string, cfg experiments.Config) ([]string, error) {
	res, err := experiments.RunAttribution(ctx, cfg)
	if err != nil {
		return nil, err
	}
	a := atlas.Build(res.Chip)
	a.ApplyLedger(res.Report, res.Bench, res.Mode)
	paths, err := a.WriteDir(dir)
	if err != nil {
		return nil, err
	}
	ledgerPath := filepath.Join(dir, "ledger.json")
	f, err := os.Create(ledgerPath)
	if err != nil {
		return nil, err
	}
	if err := res.Report.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return append(paths, ledgerPath), nil
}

// writeConvergence dumps the Monte-Carlo convergence statistics, the
// telemetry snapshot's series, as the indented convergence.json
// document: {"series": [...]}, one entry per series, sorted by name.
func writeConvergence(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	doc := struct {
		Series []telemetry.SeriesSnapshot `json:"series"`
	}{telemetry.Capture().Series}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progressLine formats the one-line mid-run progress report the
// -progress flag prints: chips done (with ETA against target when one
// is known) and each series' mean ± CI95 half-width. Done is the
// maximum series count, which tracks the distinct chips drawn since
// every such chip observes every series once.
func progressLine(target int, elapsed time.Duration) string {
	series := telemetry.Capture().Series
	var done int64
	for _, s := range series {
		if s.Count > done {
			done = s.Count
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chips=%d", done)
	if target > 0 {
		fmt.Fprintf(&b, "/%d", target)
	}
	fmt.Fprintf(&b, " elapsed=%s", elapsed.Round(100*time.Millisecond))
	if eta, ok := etaFor(done, target, elapsed); ok {
		fmt.Fprintf(&b, " eta=%s", eta.Round(100*time.Millisecond))
	}
	for _, s := range series {
		if s.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, " | %s %.4g±%.2g %s", s.Name, s.Mean, s.CI95, s.Unit)
	}
	return b.String()
}

// etaFor estimates the remaining wall time from linear extrapolation
// of done/target over elapsed. The second return is false whenever no
// meaningful estimate exists: no target, nothing done yet, already at
// or past the target, an elapsed at or below the timer's resolution
// (a sub-tick wall time would extrapolate to a garbage ETA of zero),
// or an extrapolation too large for a time.Duration — so the progress
// line never prints a NaN, an Inf, or a wrapped-around ETA.
func etaFor(done int64, target int, elapsed time.Duration) (time.Duration, bool) {
	if target <= 0 || done <= 0 || done >= int64(target) || elapsed <= 0 {
		return 0, false
	}
	eta := float64(elapsed) / float64(done) * float64(int64(target)-done)
	if math.IsNaN(eta) || math.IsInf(eta, 0) || eta >= float64(math.MaxInt64) {
		return 0, false
	}
	return time.Duration(eta), true
}
