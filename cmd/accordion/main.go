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
// -manifest FILE writes a run-provenance manifest: the full flag set,
// toolchain versions, per-runner wall times, cache hit rates, and a
// SHA-256 of every artifact the run wrote; -verify-manifest FILE
// re-hashes a manifest's artifacts and exits non-zero on any mismatch
// (paths resolve relative to the current directory, as recorded).
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
// Run history: -history DIR appends one record per completed run to
// the store's records.ndjson — runner wall times, telemetry counters
// and quantiles, cache hit rates, convergence CI widths, all stamped
// with the binary's VCS revision and GOMAXPROCS. It also traces the
// run and records each stage's self time as layer.<stage>.self_ns
// (rms.<kernel>.run, quality.<kernel>.score, core.front.cell, ...),
// so a record says which layer the run spent its time in.
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
	"io"
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
	"repro/internal/provenance"
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
		maniPath   = flag.String("manifest", "", "write a run-provenance manifest (flags, versions, wall times, artifact SHA-256s)")
		convPath   = flag.String("convergence", "", "monitor Monte-Carlo convergence and write the statistics as JSON")
		progress   = flag.Bool("progress", false, "print chips-done/ETA/CI-width progress lines to stderr during the run")
		verifyMani = flag.String("verify-manifest", "", "re-hash a manifest's artifacts and exit non-zero on mismatch")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, /telemetryz, /metricsz and /eventsz on this address (e.g. localhost:6060)")
		histDir    = flag.String("history", "", "append a run record (telemetry, convergence, runner timings, per-stage self times) to this run-history store")
	)
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "accordion: "+format+"\n", args...)
		os.Exit(code)
	}

	if *verifyMani != "" {
		man, err := provenance.Load(*verifyMani)
		if err != nil {
			fail(1, "%v", err)
		}
		if errs := man.VerifyArtifacts(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "accordion: verify-manifest: %v\n", e)
			}
			fail(1, "%d of %d artifacts failed verification", len(errs), len(man.Artifacts))
		}
		fmt.Printf("manifest %s: %d artifacts verified\n", *verifyMani, len(man.Artifacts))
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
	// The manifest and the history record report cache hit rates and
	// runner times, a trace is made of stage calls, and convergence
	// statistics are telemetry series, all of which telemetry records,
	// so recording must be on even without a -telemetry dump.
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

	var man *provenance.Manifest
	if *maniPath != "" {
		man = provenance.New("accordion")
		man.SetFlags(flag.CommandLine)
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
		// The history record's per-stage self times are read from the
		// trace.
		ctx = telemetry.TraceContext(ctx)
	}
	if monitor {
		ctx = telemetry.MonitorContext(ctx)
	}
	run := stRun.Begin(ctx).Int("experiments", int64(len(args)))
	ctx = run.Context(ctx)

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

	// finishObservability ends the run stage and writes every enabled
	// observability artifact and the -telemetry report; called on the
	// error path too, so a failed run still leaves its trace,
	// convergence report and manifest (with the error recorded) behind.
	finishObservability := func(results []experiments.RunResult) {
		stopProgress()
		run.End()
		if *tracePath != "" {
			if err := writeTrace(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: trace: %v\n", err)
			} else if man != nil {
				if err := man.AddArtifactFile("trace.json", *tracePath); err != nil {
					fmt.Fprintf(os.Stderr, "accordion: manifest: %v\n", err)
				}
			}
		}
		if *convPath != "" {
			if err := writeConvergence(*convPath); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: convergence: %v\n", err)
			} else if man != nil {
				if err := man.AddArtifactFile("convergence.json", *convPath); err != nil {
					fmt.Fprintf(os.Stderr, "accordion: manifest: %v\n", err)
				}
			}
		}
		// The atlas export runs before the event dump so its atlas.built
		// and fault-provenance events land in events.ndjson too.
		if obs.Atlas != "" {
			paths, err := writeAtlas(ctx, obs.Atlas, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "accordion: atlas: %v\n", err)
			} else if man != nil {
				for _, p := range paths {
					if err := man.AddArtifactFile(filepath.Base(p), p); err != nil {
						fmt.Fprintf(os.Stderr, "accordion: manifest: %v\n", err)
					}
				}
			}
		}
		if err := finishObs(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "accordion: %v\n", err)
		} else if man != nil && obs.Events != "" {
			if err := man.AddArtifactFile("events.ndjson", obs.Events); err != nil {
				fmt.Fprintf(os.Stderr, "accordion: manifest: %v\n", err)
			}
		}
		if man != nil {
			for _, r := range results {
				man.AddRunner(r.ID, r.Elapsed, r.Err)
			}
			for _, c := range telemetry.Caches(telemetry.Capture().Counters) {
				man.AddCache(c.Name, c.Hits, c.Misses)
			}
			man.Finish()
			if err := man.WriteFile(*maniPath); err != nil {
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
	render := func(w io.Writer, tables []*experiments.Table) error {
		for _, t := range tables {
			var err error
			switch *format {
			case "text":
				err = t.Render(w)
			case "csv":
				err = t.RenderCSV(w)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	ext := "txt"
	if *format == "csv" {
		ext = "csv"
	}
	for _, r := range results {
		out := io.Writer(os.Stdout)
		var buf *bytes.Buffer
		if man != nil {
			// Render through a buffer so the manifest can hash exactly
			// the bytes stdout received; the stream itself is unchanged.
			buf = &bytes.Buffer{}
			out = buf
		}
		if err := render(out, r.Tables); err != nil {
			fail(2, "%v", err)
		}
		if buf != nil {
			if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
				fail(1, "%v", err)
			}
			man.AddArtifactBytes("stdout:"+r.ID, buf.Bytes())
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fail(1, "%v", err)
			}
			path := filepath.Join(*outDir, r.ID+"."+ext)
			f, err := os.Create(path)
			if err != nil {
				fail(1, "%v", err)
			}
			if err := render(f, r.Tables); err != nil {
				fail(1, "%v", err)
			}
			if err := f.Close(); err != nil {
				fail(1, "%v", err)
			}
			if man != nil {
				if err := man.AddArtifactFile(r.ID+"."+ext, path); err != nil {
					fail(1, "%v", err)
				}
			}
		}
	}
	finishObservability(results)

	if *histDir != "" {
		rec := buildHistoryRecord(results, time.Since(start))
		st := history.Store{Dir: *histDir}
		if err := st.Append(rec); err != nil {
			fail(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "accordion: appended %s record (%d metrics) to %s\n",
			rec.CompatKey(), len(rec.Metrics), st.Path())
	}
}

// buildHistoryRecord harvests the finished run into a history record:
// run identity from the build info, per-runner wall times, the full
// telemetry snapshot (cache hit rates and convergence series
// included), and each traced stage's self time. A trace that dropped
// events would understate some layers, so its self times are left
// out.
func buildHistoryRecord(results []experiments.RunResult, wall time.Duration) history.Record {
	rec := history.NewRecord("accordion", "run")
	rec.WallMs = wall.Milliseconds()
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
	return rec
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
// returns every path written so the manifest can hash them.
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
