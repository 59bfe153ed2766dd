package telemetry

import (
	"flag"
	"fmt"
	"io"
)

// Flags is the observability flag set the accordion, chipgen and
// paretoscan binaries share, registered by one helper so the names and
// usage strings cannot drift between tools.
type Flags struct {
	Mode  string // -telemetry: "", "text" or "json"
	Atlas string // -atlas: the directory each binary writes its own spatial export to
}

// RegisterFlags registers -telemetry and -atlas on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Mode, "telemetry", "",
		"dump a telemetry report to stderr after the run: text or json")
	fs.StringVar(&f.Atlas, "atlas", "",
		"write per-chip spatial exports (JSON, CSV, SVG heatmaps) into this directory")
	return f
}

// Start validates -telemetry, turns telemetry on when it is set, and
// returns the finish function, which callers invoke unconditionally
// once the run's work is done: it writes the -telemetry report to w,
// and does nothing when -telemetry is empty. -atlas is the caller's to
// act on.
func (f *Flags) Start() (finish func(w io.Writer) error, err error) {
	var report func(io.Writer) error
	switch f.Mode {
	case "":
		return func(io.Writer) error { return nil }, nil
	case "text":
		report = func(w io.Writer) error { return Capture().WriteText(w) }
	case "json":
		report = func(w io.Writer) error { return Capture().WriteJSON(w) }
	default:
		return nil, fmt.Errorf("telemetry: unknown -telemetry mode %q (want text or json)", f.Mode)
	}
	SetEnabled(true)
	return report, nil
}
