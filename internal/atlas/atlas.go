// Package atlas renders per-chip spatial exports: core and cluster
// grids of the variation-afflicted quantities the paper's chip-map
// figures show — threshold-voltage and channel-length deviation, fmax
// and safe frequency at VddNTV, per-cycle timing-error probability,
// per-cluster VddMIN — optionally overlaid with a run's fault-
// attribution ledger (injected-fault counts and per-core distortion
// contribution). One Atlas serializes as JSON (machine consumption),
// CSV (spreadsheets), and standalone SVG heatmaps (the chip-map view).
//
// Every numeric field is rounded to nine significant digits at build
// time so the exports are byte-stable across platforms and suitable
// for golden tests.
package atlas

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// CoreCell is one core's row of the atlas.
type CoreCell struct {
	Core    int `json:"core"`
	Cluster int `json:"cluster"`
	// X, Y locate the core on the die grid: cluster tiles of
	// CoreSide x CoreSide cores, GridSide tiles per die edge.
	X          int     `json:"x"`
	Y          int     `json:"y"`
	VthDev     float64 `json:"vth_dev"`    // fractional Vth deviation
	LeffDev    float64 `json:"leff_dev"`   // fractional Leff deviation
	VthV       float64 `json:"vth_v"`      // actual threshold voltage
	FmaxGHz    float64 `json:"fmax_ghz"`   // max frequency at VddNTV
	SafeGHz    float64 `json:"safe_ghz"`   // error-free frequency at VddNTV
	Perr       float64 `json:"perr"`       // timing-error probability at the median core fmax
	Faults     int64   `json:"faults"`     // injected faults charged to this core (ledger)
	Distortion float64 `json:"distortion"` // output-distortion contribution (ledger)
	Engaged    bool    `json:"engaged"`    // core executed tasks in the attributed run
}

// ClusterCell is one voltage cluster's row of the atlas.
type ClusterCell struct {
	Cluster int     `json:"cluster"`
	VddMIN  float64 `json:"vddmin_v"`
}

// Atlas is the spatial export of one sampled chip, optionally overlaid
// with one run's fault-attribution report.
type Atlas struct {
	ChipSeed int64   `json:"chip_seed"`
	Clusters int     `json:"clusters"`
	CoresPer int     `json:"cores_per_cluster"`
	GridSide int     `json:"grid_side"` // cluster tiles per die edge
	CoreSide int     `json:"core_side"` // cores per cluster-tile edge
	VddNTV   float64 `json:"vddntv_v"`

	// Run overlay, zero-valued until ApplyLedger.
	Bench           string  `json:"bench,omitempty"`
	FaultMode       string  `json:"fault_mode,omitempty"`
	TotalDistortion float64 `json:"total_distortion"`

	Cores       []CoreCell    `json:"cores"`
	ClusterRows []ClusterCell `json:"clusters_rows"`
}

// round9 rounds v to nine significant digits, pinning the exports to a
// representation stable across platforms' math libraries.
func round9(v float64) float64 {
	r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 9, 64), 64)
	if err != nil {
		return v
	}
	return r
}

// Build derives the atlas of one sampled chip. Frequencies are
// evaluated at the chip's VddNTV; Perr is each core's timing-error
// probability when clocked at the median core fmax, the same
// population-relevant operating point chip.SummaryMetrics uses.
func Build(ch *chip.Chip) *Atlas {
	cfg := ch.Cfg
	gridSide := 1
	for gridSide*gridSide < cfg.Clusters {
		gridSide++
	}
	coreSide := 1
	for coreSide*coreSide < cfg.CoresPer {
		coreSide++
	}
	vdd := ch.VddNTV()
	a := &Atlas{
		ChipSeed: ch.Seed,
		Clusters: cfg.Clusters,
		CoresPer: cfg.CoresPer,
		GridSide: gridSide,
		CoreSide: coreSide,
		VddNTV:   round9(vdd),
	}
	n := len(ch.Cores)
	fmaxes := make([]float64, n)
	for i := range ch.Cores {
		fmaxes[i] = ch.CoreFmax(i, vdd)
	}
	sorted := append([]float64(nil), fmaxes...)
	sort.Float64s(sorted)
	median := sorted[n/2]

	a.Cores = make([]CoreCell, n)
	for i, co := range ch.Cores {
		k := i % cfg.CoresPer
		a.Cores[i] = CoreCell{
			Core:    co.ID,
			Cluster: co.Cluster,
			X:       (co.Cluster%gridSide)*coreSide + k%coreSide,
			Y:       (co.Cluster/gridSide)*coreSide + k/coreSide,
			VthDev:  round9(co.VthDev),
			LeffDev: round9(co.LeffDev),
			VthV:    round9(co.Vth(cfg.Tech)),
			FmaxGHz: round9(fmaxes[i]),
			SafeGHz: round9(ch.CoreSafeFreq(i, vdd)),
			Perr:    round9(ch.CorePerr(i, vdd, median)),
		}
	}
	a.ClusterRows = make([]ClusterCell, cfg.Clusters)
	for c := range a.ClusterRows {
		a.ClusterRows[c] = ClusterCell{Cluster: c, VddMIN: round9(ch.ClusterVddMIN(c))}
	}
	telemetry.NewEvent("atlas.built").
		Int("chip", ch.Seed).
		Int("cores", int64(n)).
		Float("vddntv", round9(vdd)).
		Emit()
	return a
}

// ApplyLedger overlays one run's fault-attribution report onto the
// atlas: per-core injected-fault counts and distortion contributions.
// Report cores outside the chip are ignored. bench and mode label the
// run in the exports.
func (a *Atlas) ApplyLedger(rep fault.Report, bench, mode string) {
	a.Bench = bench
	a.FaultMode = mode
	a.TotalDistortion = round9(rep.TotalDistortion)
	byID := make(map[int]*CoreCell, len(a.Cores))
	for i := range a.Cores {
		byID[a.Cores[i].Core] = &a.Cores[i]
	}
	for _, cr := range rep.Cores {
		cell, ok := byID[cr.Core]
		if !ok {
			continue
		}
		cell.Faults = cr.Faults
		cell.Distortion = round9(cr.Distortion)
		cell.Engaged = true
	}
}

// WriteJSON renders the atlas as indented JSON.
func (a *Atlas) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteCSV renders the per-core table as CSV, one row per core with a
// trailing per-cluster VddMIN column (repeated across the cluster's
// cores so the table stays flat).
func (a *Atlas) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"core,cluster,x,y,vth_dev,leff_dev,vth_v,fmax_ghz,safe_ghz,perr,faults,distortion,engaged,cluster_vddmin_v"); err != nil {
		return err
	}
	for _, c := range a.Cores {
		vddmin := 0.0
		if c.Cluster < len(a.ClusterRows) {
			vddmin = a.ClusterRows[c.Cluster].VddMIN
		}
		engaged := 0
		if c.Engaged {
			engaged = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%g,%g,%g,%g,%g,%g,%d,%g,%d,%g\n",
			c.Core, c.Cluster, c.X, c.Y, c.VthDev, c.LeffDev, c.VthV,
			c.FmaxGHz, c.SafeGHz, c.Perr, c.Faults, c.Distortion, engaged, vddmin); err != nil {
			return err
		}
	}
	return nil
}

// Metrics lists the per-core quantities WriteSVG can map. "vddmin" is
// cluster-granular (every core of a cluster shares its value).
func Metrics() []string {
	return []string{"vth", "leff", "fmax", "safe", "perr", "vddmin", "faults", "distortion"}
}

// metricValue extracts one metric from a core cell.
func (a *Atlas) metricValue(c CoreCell, metric string) (float64, error) {
	switch metric {
	case "vth":
		return c.VthDev, nil
	case "leff":
		return c.LeffDev, nil
	case "fmax":
		return c.FmaxGHz, nil
	case "safe":
		return c.SafeGHz, nil
	case "perr":
		return c.Perr, nil
	case "vddmin":
		if c.Cluster < len(a.ClusterRows) {
			return a.ClusterRows[c.Cluster].VddMIN, nil
		}
		return 0, nil
	case "faults":
		return float64(c.Faults), nil
	case "distortion":
		return c.Distortion, nil
	}
	return 0, fmt.Errorf("atlas: unknown metric %q (want one of %v)", metric, Metrics())
}

// WriteDir writes the atlas's full export set into dir (creating it):
// atlas.json, atlas.csv, and one atlas_<metric>.svg heatmap per
// Metrics() entry. It returns the paths written, in a fixed order.
func (a *Atlas) WriteDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	var paths []string
	write := func(name string, render func(io.Writer) error) error {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			return fmt.Errorf("atlas: %w", err)
		}
		if err := render(f); err != nil {
			f.Close()
			return fmt.Errorf("atlas: writing %s: %w", p, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("atlas: %w", err)
		}
		paths = append(paths, p)
		return nil
	}
	if err := write("atlas.json", a.WriteJSON); err != nil {
		return nil, err
	}
	if err := write("atlas.csv", a.WriteCSV); err != nil {
		return nil, err
	}
	for _, m := range Metrics() {
		metric := m
		if err := write("atlas_"+metric+".svg", func(w io.Writer) error {
			return a.WriteSVG(w, metric)
		}); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
