// Command accordionhist is the run-history toolbelt: append records
// to a store from artifacts other tools wrote (BENCH_*.json blobs,
// provenance manifests, /telemetryz scrapes), run the noise-aware
// regression gate, and render text trend reports.
//
//	accordionhist append -dir HISTORY -tool bench_parallel -kind bench -bench BENCH_parallel.json
//	accordionhist check  -dir HISTORY [-window 20] [-margin 0.10] [-min-baseline 3] [-json]
//	accordionhist report -dir HISTORY [-last 20] [-metric GLOB] [-out FILE]
//	accordionhist list   -dir HISTORY
//
// Exit codes: 0 success (check: pass), 1 a confirmed regression from
// check, 2 a usage or I/O error — so CI gates on the exit status
// alone.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/history"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one subcommand and returns the process exit status: 0
// on success, 1 for a regression found by check, 2 for usage or I/O
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "append":
		err = cmdAppend(args[1:], stderr)
	case "check":
		return cmdCheck(args[1:], stdout, stderr)
	case "report":
		err = cmdReport(args[1:], stdout, stderr)
	case "list":
		err = cmdList(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "accordionhist: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "accordionhist:", err)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: accordionhist <append|check|report|list> [flags]

append  harvest artifacts into a new record and append it to the store
check   gate the newest record against its baseline window (exit 1 on regression)
report  render per-metric trends as text
list    one line per record in the store

Run "accordionhist <subcommand> -h" for flags.
`)
}

// newFlagSet returns a subcommand flag set that reports parse errors
// to stderr and leaves the exit status to run.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("accordionhist "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// repeatedFlag collects a repeatable -flag value.
type repeatedFlag []string

func (r *repeatedFlag) String() string { return fmt.Sprint([]string(*r)) }
func (r *repeatedFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func cmdAppend(args []string, stderr io.Writer) error {
	fs := newFlagSet("append", stderr)
	dir := fs.String("dir", "", "history store directory (required)")
	tool := fs.String("tool", "", "record tool identity, e.g. bench_parallel (required)")
	kind := fs.String("kind", "bench", "record kind, e.g. run or bench")
	note := fs.String("note", "", "free-form note stored on the record")
	var benches, manifests, scrapes repeatedFlag
	fs.Var(&benches, "bench", "BENCH_*.json blob to harvest (repeatable)")
	fs.Var(&manifests, "manifest", "provenance manifest.json to harvest (repeatable)")
	fs.Var(&scrapes, "telemetry", "/telemetryz JSON scrape to harvest (repeatable)")
	revision := fs.String("revision", "", "override the VCS revision stamp")
	dirty := fs.Bool("dirty", false, "override the VCS dirty flag (with -revision)")
	gomaxprocs := fs.Int("gomaxprocs", 0, "override the GOMAXPROCS stamp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *tool == "" {
		return fmt.Errorf("append: -dir and -tool are required")
	}
	if len(benches)+len(manifests)+len(scrapes) == 0 {
		return fmt.Errorf("append: nothing to harvest (need -bench, -manifest, or -telemetry)")
	}
	rec := history.NewRecord(*tool, *kind)
	rec.Note = *note
	for _, path := range manifests {
		man, err := provenance.Load(path)
		if err != nil {
			return err
		}
		rec.AddManifest(man)
	}
	for _, path := range scrapes {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("telemetry scrape %s: %w", path, err)
		}
		rec.AddTelemetry(snap)
	}
	for _, path := range benches {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := rec.AddBenchJSON(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if *revision != "" {
		rec.VCSRevision = *revision
		rec.VCSDirty = *dirty
	}
	if *gomaxprocs > 0 {
		rec.GOMAXPROCS = *gomaxprocs
	}
	st := history.Store{Dir: *dir}
	if err := st.Append(rec); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "accordionhist: appended %s record (%d metrics) to %s\n",
		rec.CompatKey(), len(rec.Metrics), st.Path())
	return nil
}

func cmdCheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("check", stderr)
	dir := fs.String("dir", "", "history store directory (required)")
	window := fs.Int("window", 0, "baseline window size (default 20)")
	minBaseline := fs.Int("min-baseline", 0, "fewest baseline records before gating (default 3)")
	margin := fs.Float64("margin", 0, "relative slack beyond the 95% band (default 0.10)")
	asJSON := fs.Bool("json", false, "emit the gate report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "accordionhist: check: -dir is required")
		return 2
	}
	recs, err := history.Store{Dir: *dir}.Load()
	if err != nil {
		fmt.Fprintln(stderr, "accordionhist:", err)
		return 2
	}
	rep, err := history.Check(recs, history.DefaultDirections(), history.GateConfig{
		Window: *window, MinBaseline: *minBaseline, Margin: *margin,
	})
	if err != nil {
		fmt.Fprintln(stderr, "accordionhist:", err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "accordionhist:", err)
			return 2
		}
	} else if err := rep.WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, "accordionhist:", err)
		return 2
	}
	if rep.Regressions() > 0 {
		return 1
	}
	return 0
}

func cmdReport(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("report", stderr)
	dir := fs.String("dir", "", "history store directory (required)")
	last := fs.Int("last", 0, "records to trend (default 20)")
	out := fs.String("out", "", "write to this file instead of stdout")
	var metrics repeatedFlag
	fs.Var(&metrics, "metric", "glob selecting trended metrics (repeatable; default: gated set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("report: -dir is required")
	}
	recs, err := history.Store{Dir: *dir}.Load()
	if err != nil {
		return err
	}
	opt := history.ReportOptions{LastK: *last, Metrics: metrics}
	if *out == "" {
		return history.WriteTextReport(stdout, recs, opt)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := history.WriteTextReport(f, recs, opt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdList(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("list", stderr)
	dir := fs.String("dir", "", "history store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("list: -dir is required")
	}
	recs, err := history.Store{Dir: *dir}.Load()
	if err != nil {
		return err
	}
	for i, r := range recs {
		rev := r.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if rev == "" {
			rev = "-"
		}
		dirty := ""
		if r.VCSDirty {
			dirty = "+"
		}
		fmt.Fprintf(stdout, "%4d  %-28s %-13s %4d metrics  %s\n", i+1, r.CompatKey(), rev+dirty, len(r.Metrics), r.Note)
	}
	return nil
}
