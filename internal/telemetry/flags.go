package telemetry

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Flags is the observability flag set the accordion, chipgen and
// paretoscan binaries share, registered by one helper so the names and
// usage strings cannot drift between tools.
type Flags struct {
	Mode   string // -telemetry: "", "text" or "json"
	Events string // -events: the NDJSON event-log path
	Atlas  string // -atlas: the directory each binary writes its own spatial export to
}

// RegisterFlags registers -telemetry, -events and -atlas on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Mode, "telemetry", "",
		"dump a telemetry report to stderr after the run: text or json")
	fs.StringVar(&f.Events, "events", "",
		"record simulation-domain events and write them as NDJSON to this file")
	fs.StringVar(&f.Atlas, "atlas", "",
		"write per-chip spatial exports (JSON, CSV, SVG heatmaps) into this directory")
	return f
}

// Start validates -telemetry, turns telemetry on when -telemetry or
// -events is set, and returns the finish function, which callers
// invoke unconditionally once the run's work is done: it writes the
// event log to the -events file and the -telemetry report to w, and
// does nothing for flags left empty. -atlas is the caller's to act on.
func (f *Flags) Start() (finish func(w io.Writer) error, err error) {
	var report func(io.Writer) error
	switch f.Mode {
	case "":
	case "text":
		report = func(w io.Writer) error { return Capture().WriteText(w) }
	case "json":
		report = func(w io.Writer) error { return Capture().WriteJSON(w) }
	default:
		return nil, fmt.Errorf("telemetry: unknown -telemetry mode %q (want text or json)", f.Mode)
	}
	if f.Mode != "" || f.Events != "" {
		SetEnabled(true)
	}
	return func(w io.Writer) error {
		var errs []error
		if f.Events != "" {
			errs = append(errs, writeEventsFile(f.Events))
		}
		if report != nil {
			errs = append(errs, report(w))
		}
		return errors.Join(errs...)
	}, nil
}

// writeEventsFile dumps the event log to path.
func writeEventsFile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	w := bufio.NewWriter(file)
	err = WriteEvents(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		file.Close()
		return fmt.Errorf("events: writing %s: %w", path, err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return nil
}
