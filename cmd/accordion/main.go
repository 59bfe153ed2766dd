// Command accordion regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	accordion [-seed N] [-chip N] [-chips N] [-j N] [-telemetry text|json]
//	          [-trace FILE] [-events FILE] [-atlas DIR] [-manifest FILE]
//	          [-convergence FILE] [-progress] [-pprof addr]
//	          [-history DIR [-history-check] [-selfprofile]]
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
// -trace, -manifest, -history and -pprof each turn on. -telemetry
// text|json dumps the report (pool utilization, cache hit rates,
// fault counts, chip-draw latency, per-runner stage timings) to stderr
// after the run, so stdout stays a clean artifact stream. -events FILE
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
// -convergence FILE runs the experiments under a Monte-Carlo
// convergence monitor and dumps streaming mean/CI95 statistics for the
// per-chip metrics; -progress additionally prints a chips-done/ETA/CI
// line to stderr every two seconds.
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
// with the binary's VCS revision and GOMAXPROCS. -history-check then
// gates the fresh record against its baseline window (see
// cmd/accordionhist and the README's "Run history & regression gate"
// section) and exits 1 on a confirmed regression. -selfprofile
// brackets the run with a pprof CPU+heap capture and stores the
// top-N flat hotspots in the record, so hotspot drift is diffable
// across runs without opening pprof.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atlas"
	"repro/internal/converge"
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
		tracePath  = flag.String("trace", "", "record spans and write a Chrome trace-event JSON file (open in Perfetto)")
		maniPath   = flag.String("manifest", "", "write a run-provenance manifest (flags, versions, wall times, artifact SHA-256s)")
		convPath   = flag.String("convergence", "", "monitor Monte-Carlo convergence and write the statistics as JSON")
		progress   = flag.Bool("progress", false, "print chips-done/ETA/CI-width progress lines to stderr during the run")
		verifyMani = flag.String("verify-manifest", "", "re-hash a manifest's artifacts and exit non-zero on mismatch")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, /telemetryz and /metricsz on this address (e.g. localhost:6060)")
		histDir    = flag.String("history", "", "append a run record (telemetry, convergence, runner timings) to this run-history store")
		histCheck  = flag.Bool("history-check", false, "after appending, gate the record against its baseline window; exit 1 on regression (requires -history)")
		selfProf   = flag.Bool("selfprofile", false, "capture CPU+heap pprof around the run and store top hotspots in the history record (requires -history)")
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
	case *histCheck && *histDir == "":
		fail(2, "-history-check requires -history DIR")
	case *selfProf && *histDir == "":
		fail(2, "-selfprofile requires -history DIR (the hotspot summary lives in the record)")
	}
	parallel.SetWorkers(*workers)

	finishObs, err := obs.Start()
	if err != nil {
		fail(2, "%v", err)
	}
	// The manifest and the history record report cache hit rates and
	// runner times, and a trace is made of stage calls, all of which
	// telemetry records, so recording must be on even without a
	// -telemetry dump.
	if *pprofAddr != "" || *maniPath != "" || *histDir != "" || *tracePath != "" {
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
	if *tracePath != "" {
		ctx = telemetry.TraceContext(ctx)
	}
	if *convPath != "" || *progress || *histDir != "" {
		ctx = converge.MonitorContext(ctx)
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
					fmt.Fprintf(os.Stderr, "accordion: %s\n", converge.ProgressLine(*chips, time.Since(start)))
				}
			}
		}()
		stopProgress = func() {
			close(done)
			<-finished
			fmt.Fprintf(os.Stderr, "accordion: %s\n", converge.ProgressLine(*chips, time.Since(start)))
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

	// With -selfprofile the run is bracketed by a pprof capture whose
	// hotspot digest lands in the history record; without it the call
	// is exactly the pre-history direct path.
	var results []experiments.RunResult
	var prof *history.ProfileSummary
	if *selfProf {
		var runErr error
		var perr error
		prof, perr = history.CaptureProfile(history.ProfileOptions{CPU: true, Heap: true}, func() error {
			results, runErr = experiments.RunMany(ctx, cfg, args)
			return runErr
		})
		if runErr == nil && perr != nil {
			// A profiler complaint must not fail a healthy run.
			fmt.Fprintf(os.Stderr, "accordion: selfprofile: %v\n", perr)
		}
		err = runErr
	} else {
		results, err = experiments.RunMany(ctx, cfg, args)
	}
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
		rec := buildHistoryRecord(results, time.Since(start), prof)
		st := history.Store{Dir: *histDir}
		if err := st.Append(rec); err != nil {
			fail(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "accordion: appended %s record (%d metrics) to %s\n",
			rec.CompatKey(), len(rec.Metrics), st.Path())
		if *histCheck {
			recs, err := st.Load()
			if err != nil {
				fail(1, "%v", err)
			}
			rep, err := history.Check(recs, history.DefaultDirections(), history.GateConfig{})
			if err != nil {
				fail(1, "%v", err)
			}
			if err := rep.WriteText(os.Stderr); err != nil {
				fail(1, "%v", err)
			}
			if rep.Regressions() > 0 {
				os.Exit(1)
			}
		}
	}
}

// buildHistoryRecord harvests the finished run into a history record:
// run identity from the build info, per-runner wall times, the full
// telemetry snapshot (cache hit rates included), and the convergence
// statistics.
func buildHistoryRecord(results []experiments.RunResult, wall time.Duration, prof *history.ProfileSummary) history.Record {
	rec := history.NewRecord("accordion", "run")
	rec.WallMs = wall.Milliseconds()
	rec.Profile = prof
	for _, r := range results {
		if r.Err == nil {
			rec.Set("runner."+r.ID+".wall_ms", float64(r.Elapsed.Milliseconds()))
		}
	}
	rec.AddTelemetry(telemetry.Capture())
	rec.AddConvergence(converge.Capture())
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

// writeConvergence dumps the Monte-Carlo convergence statistics.
func writeConvergence(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := converge.Capture().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
