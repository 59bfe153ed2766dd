// Package power performs chip-level power accounting in the role McPAT
// played for the paper: it prices an engaged set of cores (plus the
// cluster memories and network slice they activate) at an operating
// point, checks the PMAX budget, and derives the STV baseline core
// count NSTV — the maximum number of cores that fit the budget at the
// super-threshold nominal voltage.
package power

import (
	"fmt"
	"math"

	"repro/internal/chip"
)

// Model prices operating points on one chip sample.
type Model struct {
	Chip *chip.Chip

	// ClusterMemLeakFactor scales a core's static power to one cluster
	// memory block's leakage (a 2 MB SRAM bank leaks a few core-
	// equivalents' worth of subthreshold current).
	ClusterMemLeakFactor float64
	// NetworkFracDyn is the network + cluster-bus energy as a fraction
	// of the engaged cores' dynamic power.
	NetworkFracDyn float64

	// Thermal coupling for EngagedThermal: die temperature is
	// TAmbient + RthPerW * total power, and leakage rises with it.
	TAmbient float64 // C
	RthPerW  float64 // C per W
}

// NewModel returns a Model with the default McPAT-flavoured overhead
// coefficients. The thermal defaults are calibrated so that running at
// the full PMAX budget heats the die to the leakage-calibration
// temperature (Table 2's TMIN = 80 C over a 45 C ambient).
func NewModel(ch *chip.Chip) *Model {
	return &Model{
		Chip:                 ch,
		ClusterMemLeakFactor: 0.6,
		NetworkFracDyn:       0.10,
		TAmbient:             45,
		RthPerW:              0.35,
	}
}

// Validate reports the first implausible coefficient, or nil.
func (m *Model) Validate() error {
	if m.Chip == nil {
		return fmt.Errorf("power: nil chip")
	}
	if m.ClusterMemLeakFactor < 0 || m.NetworkFracDyn < 0 {
		return fmt.Errorf("power: negative overhead coefficients")
	}
	return nil
}

// Breakdown itemizes the power of an operating point in Watts.
type Breakdown struct {
	CoreDynamic float64
	CoreStatic  float64
	Memory      float64
	Network     float64
}

// Total returns the summed power in Watts.
func (b Breakdown) Total() float64 {
	return b.CoreDynamic + b.CoreStatic + b.Memory + b.Network
}

// Engaged prices running the given cores at supply vdd and common
// frequency f GHz. Clusters containing no engaged core are power-gated
// and contribute nothing; each active cluster pays its memory leakage.
// Core leakage comes from the chip's CoreTable at vdd.
func (m *Model) Engaged(cores []int, vdd, f float64) Breakdown {
	var b Breakdown
	leak := m.Chip.CoreTable(vdd).Leakage
	active := make([]bool, m.Chip.Cfg.Clusters)
	clusters := 0
	tp := m.Chip.Cfg.Tech
	for _, i := range cores {
		b.CoreDynamic += tp.DynPower(vdd, f)
		b.CoreStatic += leak[i]
		if c := m.Chip.Cores[i].Cluster; !active[c] {
			active[c] = true
			clusters++
		}
	}
	memLeakNom := tp.StaticPower(vdd, tp.VthNom) * m.ClusterMemLeakFactor
	b.Memory = float64(clusters) * memLeakNom
	b.Network = b.CoreDynamic * m.NetworkFracDyn
	return b
}

// EngagedThermal prices the operating point with leakage-temperature
// coupling: die temperature follows the dissipated power, leakage
// follows the temperature, and the fixed point of the loop is returned
// together with the converged temperature in C. Engaged itself prices
// at the calibration temperature (Table 2's TMIN).
func (m *Model) EngagedThermal(cores []int, vdd, f float64) (Breakdown, float64) {
	base := m.Engaged(cores, vdd, f)
	tp := m.Chip.Cfg.Tech
	temp := tp.TNom
	b := base
	for i := 0; i < 8; i++ {
		scale := math.Exp(tp.LeakTempCoeff * (temp - tp.TNom))
		b = base
		b.CoreStatic *= scale
		b.Memory *= scale
		next := m.TAmbient + m.RthPerW*b.Total()
		if math.Abs(next-temp) < 1e-6 {
			temp = next
			break
		}
		temp = next
	}
	return b, temp
}

// Budget returns the chip's power budget PMAX in Watts.
func (m *Model) Budget() float64 { return m.Chip.Cfg.PowerBudget }

// WithinBudget reports whether the operating point fits PMAX.
func (m *Model) WithinBudget(cores []int, vdd, f float64) bool {
	return m.fits(m.Engaged(cores, vdd, f))
}

// fits reports whether a priced operating point fits PMAX.
func (m *Model) fits(b Breakdown) bool { return b.Total() <= m.Budget()+1e-9 }

// STVBaseline characterizes the paper's super-threshold reference
// operating point.
type STVBaseline struct {
	N     int     // NSTV: cores engaged
	Cores []int   // which cores; the caller's own copy
	Vdd   float64 // STV nominal supply
	Freq  float64 // GHz, nominal STV frequency (variation neglected, §6.3)
	Power float64 // W
}

// Baseline computes the STV reference: the maximum N such that the N
// most efficient cores running at the STV nominal voltage and nominal
// frequency fit PMAX. Following Section 6.3, STV operation neglects
// variation, so all cores run at the nominal fSTV.
//
// The order and the leakage come from the chip's CoreTable at the STV
// nominal, which every solver on the chip shares. Each prefix is priced
// by extending the previous prefix's Breakdown with one core, adding in
// the same order Engaged would, so N and Power are exactly those of
// pricing every prefix from scratch.
func (m *Model) Baseline() STVBaseline {
	tp := m.Chip.Cfg.Tech
	vdd := tp.VddNomSTV
	f := tp.FSTV()
	tab := m.Chip.CoreTable(vdd)
	all := tab.Order(chip.SelectEfficient)
	dyn := tp.DynPower(vdd, f)
	memLeakNom := tp.StaticPower(vdd, tp.VthNom) * m.ClusterMemLeakFactor
	active := make([]bool, m.Chip.Cfg.Clusters)
	clusters := 0
	var b Breakdown
	n := 0
	for ; n < len(all); n++ { // b grows to Engaged(all[:n+1])
		i := all[n]
		if c := m.Chip.Cores[i].Cluster; !active[c] {
			active[c] = true
			clusters++
		}
		b.CoreDynamic += dyn
		b.CoreStatic += tab.Leakage[i]
		b.Memory = float64(clusters) * memLeakNom
		b.Network = b.CoreDynamic * m.NetworkFracDyn
		if !m.fits(b) {
			break
		}
	}
	cores := append([]int(nil), all[:n]...)
	return STVBaseline{
		N:     n,
		Cores: cores,
		Vdd:   vdd,
		Freq:  f,
		Power: m.Engaged(cores, vdd, f).Total(),
	}
}

// MaxCoresAt returns the largest prefix of the selection order that
// fits the budget at (vdd, f); it is the power-limited core count the
// paper's Expand mode runs into.
func (m *Model) MaxCoresAt(vdd, f float64, policy chip.SelectPolicy) int {
	all := m.Chip.SelectCores(len(m.Chip.Cores), vdd, policy)
	lo, hi := 0, len(all)
	// Power grows monotonically with the engaged prefix; binary search.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.WithinBudget(all[:mid], vdd, f) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
