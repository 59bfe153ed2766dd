// Package chip assembles the technology and variation models into the
// hypothetical NTV manycore of the paper's Table 2: 288 cores in 36
// clusters of 8 on a ~20x20 mm 11nm die, with 64 KB core-private
// memories and a 2 MB memory block per cluster.
//
// A Chip is one variation-afflicted sample: every core carries its own
// threshold-voltage and channel-length deviations, every memory block
// its own minimum operating voltage VddMIN. From those the chip derives
// per-core maximum/safe/speculative frequencies, per-cluster VddMIN,
// and the chip-wide near-threshold operating voltage VddNTV (the
// maximum per-cluster VddMIN, exactly as in Section 6.1).
package chip

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/tech"
	"repro/internal/telemetry"
	"repro/internal/variation"
)

// Factory telemetry: how many Monte-Carlo chips have been drawn, how
// long one draw takes (two correlated-field samples plus the voltage
// derivation; the factory's Cholesky cost is paid once at NewFactory),
// and, under a monitored context, the convergence series of each
// distinct chip's Summary.
var (
	telChipsDrawn = telemetry.GetCounter("chip.factory.chips_drawn")
	stDraw        = telemetry.NewStage("chip.draw")
	serFmax       = telemetry.GetSeries("chip.fmax_ghz", "GHz")
	serVddMIN     = telemetry.GetSeries("chip.vddmin_v", "V")
	serPower      = telemetry.GetSeries("chip.power_w", "W")
	serErrRate    = telemetry.GetSeries("chip.err_rate", "p/cycle")
)

// Config describes the chip organization and its variation environment.
type Config struct {
	Tech     tech.Params
	Vth      variation.FieldParams
	Leff     variation.FieldParams
	Clusters int // total clusters (36)
	CoresPer int // cores per cluster (8)

	CoreMemBits    int // bits per core-private memory block (64 KB)
	ClusterMemBits int // bits per cluster memory block (2 MB)

	PowerBudget float64 // W, chip power budget PMAX (100)
}

// DefaultConfig returns the paper's Table 2 system configuration.
func DefaultConfig() Config {
	return Config{
		Tech:           tech.Default11nm(),
		Vth:            variation.DefaultVth(),
		Leff:           variation.DefaultLeff(),
		Clusters:       36,
		CoresPer:       8,
		CoreMemBits:    64 * 1024 * 8,
		ClusterMemBits: 2 * 1024 * 1024 * 8,
		PowerBudget:    100,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if err := c.Vth.Validate(); err != nil {
		return err
	}
	if err := c.Leff.Validate(); err != nil {
		return err
	}
	switch {
	case c.Clusters <= 0 || c.CoresPer <= 0:
		return fmt.Errorf("chip: need positive cluster and core counts")
	case c.CoreMemBits <= 0 || c.ClusterMemBits <= 0:
		return fmt.Errorf("chip: need positive memory sizes")
	case c.PowerBudget <= 0:
		return fmt.Errorf("chip: need a positive power budget")
	}
	gridSide := int(math.Round(math.Sqrt(float64(c.Clusters))))
	if gridSide*gridSide != c.Clusters {
		return fmt.Errorf("chip: cluster count %d is not a perfect square", c.Clusters)
	}
	return nil
}

// NumCores returns the total core count.
func (c Config) NumCores() int { return c.Clusters * c.CoresPer }

// Core is one variation-afflicted core.
type Core struct {
	ID      int
	Cluster int
	Pos     variation.Point
	VthDev  float64 // fractional Vth deviation
	LeffDev float64 // fractional Leff deviation
}

// Vth returns the core's actual threshold voltage under tech params tp.
func (co Core) Vth(tp tech.Params) float64 { return tp.VthNom * (1 + co.VthDev) }

// BlockKind distinguishes the two memory block types.
type BlockKind int

// Memory block kinds.
const (
	CoreMem BlockKind = iota
	ClusterMem
)

// MemBlock is one SRAM block with its minimum operating voltage.
type MemBlock struct {
	Kind    BlockKind
	Cluster int
	Core    int // owning core for CoreMem blocks, -1 for ClusterMem
	VthDev  float64
	VddMIN  float64
}

// Chip is a single variation-afflicted sample of the manycore.
type Chip struct {
	Cfg    Config
	Seed   int64
	Cores  []Core
	Blocks []MemBlock

	clusterVddMIN []float64
	vddNTV        float64

	// Device-model constants that depend on Cfg.Tech alone, derived
	// once with the voltages: the frequency and leakage calibration
	// constants and the error-free path-delay quantile.
	freqK, staticK, zSafe float64

	// tables memoizes CoreTable per supply voltage (keyed by its bits).
	tables *parallel.Cache[uint64, *CoreTable]
}

// layout returns the sampling points: for each cluster, CoresPer core
// points (shared by the core and its private memory, which abuts it)
// followed by one cluster-memory point, laid out on a uniform grid.
func layout(cfg Config) (corePts, clusterMemPts []variation.Point) {
	side := int(math.Round(math.Sqrt(float64(cfg.Clusters))))
	coreSide := int(math.Ceil(math.Sqrt(float64(cfg.CoresPer))))
	tile := 1.0 / float64(side)
	for cy := 0; cy < side; cy++ {
		for cx := 0; cx < side; cx++ {
			ox, oy := float64(cx)*tile, float64(cy)*tile
			for k := 0; k < cfg.CoresPer; k++ {
				gx, gy := k%coreSide, k/coreSide
				corePts = append(corePts, variation.Point{
					X: ox + (float64(gx)+0.5)/float64(coreSide)*tile*0.8,
					Y: oy + (float64(gy)+0.5)/float64(coreSide)*tile*0.8,
				})
			}
			clusterMemPts = append(clusterMemPts, variation.Point{
				X: ox + 0.9*tile,
				Y: oy + 0.5*tile,
			})
		}
	}
	return corePts, clusterMemPts
}

// Factory generates a population of chips sharing one covariance
// factorization; building it is the expensive step.
type Factory struct {
	cfg        Config
	vthSampler *variation.Sampler
	lefSampler *variation.Sampler
	corePts    []variation.Point
	nCore      int
}

// NewFactory validates cfg and prepares the variation samplers.
func NewFactory(cfg Config) (*Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corePts, memPts := layout(cfg)
	all := append(append([]variation.Point{}, corePts...), memPts...)
	vs, err := variation.NewSampler(all, cfg.Vth)
	if err != nil {
		return nil, err
	}
	ls, err := variation.NewSampler(corePts, cfg.Leff)
	if err != nil {
		return nil, err
	}
	return &Factory{cfg: cfg, vthSampler: vs, lefSampler: ls, corePts: corePts, nCore: len(corePts)}, nil
}

// Config returns the factory's configuration.
func (f *Factory) Config() Config { return f.cfg }

// Sample draws one chip. The same seed always yields the same chip.
func (f *Factory) Sample(seed int64) *Chip {
	return f.sample(context.Background(), seed)
}

// sample is one chip.draw stage, the draw Sample and SampleCtx share:
// in a traced context its event carries the chip's seed and VddNTV.
func (f *Factory) sample(ctx context.Context, seed int64) *Chip {
	st := stDraw.Begin(ctx).Int("seed", seed)
	defer st.End()
	cfg := f.cfg
	rng := mathx.NewRNG(seed)
	vthDev := f.vthSampler.Sample(rng.Split(1))
	leffDev := f.lefSampler.Sample(rng.Split(2))
	blockRng := rng.Split(3)

	corePts := f.corePts
	ch := &Chip{Cfg: cfg, Seed: seed}
	ch.Cores = make([]Core, f.nCore)
	for i := range ch.Cores {
		ch.Cores[i] = Core{
			ID:      i,
			Cluster: i / cfg.CoresPer,
			Pos:     corePts[i],
			VthDev:  vthDev[i],
			LeffDev: leffDev[i],
		}
	}
	// Memory blocks: a private block co-located with each core, plus a
	// cluster block at each cluster-memory point.
	ch.Blocks = make([]MemBlock, 0, f.nCore+cfg.Clusters)
	for i := 0; i < f.nCore; i++ {
		dv := vthDev[i] * cfg.Tech.VthNom
		ch.Blocks = append(ch.Blocks, MemBlock{
			Kind:    CoreMem,
			Cluster: i / cfg.CoresPer,
			Core:    i,
			VthDev:  vthDev[i],
			VddMIN:  cfg.Tech.BlockVddMIN(dv, cfg.CoreMemBits, blockRng.StdNormal()),
		})
	}
	for c := 0; c < cfg.Clusters; c++ {
		dev := vthDev[f.nCore+c]
		dv := dev * cfg.Tech.VthNom
		ch.Blocks = append(ch.Blocks, MemBlock{
			Kind:    ClusterMem,
			Cluster: c,
			Core:    -1,
			VthDev:  dev,
			VddMIN:  cfg.Tech.BlockVddMIN(dv, cfg.ClusterMemBits, blockRng.StdNormal()),
		})
	}
	ch.deriveVoltages()
	st.Float("vddntv", ch.vddNTV)
	telChipsDrawn.Inc()
	return ch
}

// SampleCtx is Sample under the observability tier: in a context
// descending from telemetry.TraceContext the chip.draw stage records a
// trace event under ctx's current stage, so population draws nest
// under their pool worker, and the first draw of each seed streams the
// chip's summary metrics into the Monte-Carlo convergence series. The
// seed identifies the chip because every factory in the tree is built
// from DefaultConfig, so two experiments drawing the same seeds add no
// observations. An untraced context never pays for SummaryMetrics,
// which keeps accordiond and library callers off it: with telemetry
// off the check is one atomic load, and with it on one lookup. The
// chip returned is bit-identical to Sample(seed) regardless.
func (f *Factory) SampleCtx(ctx context.Context, seed int64) *Chip {
	ch := f.sample(ctx, seed)
	if telemetry.Monitored(ctx, seed) {
		ch.observeConvergence()
	}
	return ch
}

// Population draws n chips with seeds derived from seed. The draws fan
// out across parallel.Workers() goroutines; chip i's seed depends only
// on (seed, i), so the population is bit-identical to a sequential
// draw regardless of the worker count.
func (f *Factory) Population(seed int64, n int) []*Chip {
	chips, _ := f.PopulationCtx(context.Background(), seed, n)
	return chips
}

// PopulationCtx is Population with cancellation: it returns early with
// the context's error if ctx is cancelled mid-draw. Each draw goes
// through SampleCtx, so a traced run shows one chip.draw event per chip
// under the pool worker that drew it and feeds every chip of the
// population it has not seen yet to the convergence series.
func (f *Factory) PopulationCtx(ctx context.Context, seed int64, n int) ([]*Chip, error) {
	return parallel.Map(ctx, n, func(wctx context.Context, i int) (*Chip, error) {
		return f.SampleCtx(wctx, mathx.SplitSeed(seed, int64(i))), nil
	})
}

// New is a convenience constructor for a single chip.
func New(cfg Config, seed int64) (*Chip, error) {
	f, err := NewFactory(cfg)
	if err != nil {
		return nil, err
	}
	return f.Sample(seed), nil
}

// deriveVoltages derives everything a Chip holds beyond its sampled
// variation: the per-cluster VddMIN, VddNTV, and the device-model
// constants of Cfg.Tech. Sample and Load both call it.
func (ch *Chip) deriveVoltages() {
	tp := ch.Cfg.Tech
	ch.freqK, ch.staticK = tp.FreqK(), tp.StaticK()
	ch.zSafe = tp.PerrQuantile(tech.ErrorFreePerr)
	ch.tables = &parallel.Cache[uint64, *CoreTable]{Name: "chip.CoreTable", Max: coreTablesPerChip}
	ch.clusterVddMIN = make([]float64, ch.Cfg.Clusters)
	for _, b := range ch.Blocks {
		if b.VddMIN > ch.clusterVddMIN[b.Cluster] {
			ch.clusterVddMIN[b.Cluster] = b.VddMIN
		}
	}
	ch.vddNTV = 0
	for _, v := range ch.clusterVddMIN {
		if v > ch.vddNTV {
			ch.vddNTV = v
		}
	}
}

// ClusterVddMIN returns the minimum functional voltage of cluster c:
// the maximum VddMIN across the memory blocks it contains.
func (ch *Chip) ClusterVddMIN(c int) float64 { return ch.clusterVddMIN[c] }

// ClusterVddMINs returns a copy of all per-cluster VddMIN values.
func (ch *Chip) ClusterVddMINs() []float64 {
	out := make([]float64, len(ch.clusterVddMIN))
	copy(out, ch.clusterVddMIN)
	return out
}

// VddNTV returns the chip-wide near-threshold operating voltage: the
// maximum per-cluster VddMIN, so every memory block stays functional.
func (ch *Chip) VddNTV() float64 { return ch.vddNTV }

// CoreFmax returns core i's variation-afflicted maximum frequency in
// GHz at supply vdd: the technology frequency at the core's actual
// threshold, scaled by its channel-length deviation (longer channels
// are slower).
func (ch *Chip) CoreFmax(i int, vdd float64) float64 {
	return ch.fmax(i, ch.timing(i, vdd))
}

// timing returns core i's critical-path delay distribution at vdd.
func (ch *Chip) timing(i int, vdd float64) tech.Timing {
	return ch.Cfg.Tech.Timing(ch.freqK, vdd, ch.Cores[i].Vth(ch.Cfg.Tech))
}

// fmax returns core i's maximum frequency given its timing t.
func (ch *Chip) fmax(i int, t tech.Timing) float64 {
	return t.Fmax / (1 + ch.Cores[i].LeffDev)
}

// freqAt returns core i's highest frequency at path-delay quantile z
// given its timing t: the one formula behind every per-core frequency
// at an error-rate target, here and in CoreTable.
func (ch *Chip) freqAt(i int, t tech.Timing, z float64) float64 {
	return t.FreqAt(z) / (1 + ch.Cores[i].LeffDev)
}

// CoreSafeFreq returns core i's highest error-free frequency at vdd.
func (ch *Chip) CoreSafeFreq(i int, vdd float64) float64 {
	return ch.freqAt(i, ch.timing(i, vdd), ch.zSafe)
}

// CoreFreqAtPerr returns the highest frequency at which core i's
// per-cycle timing-error probability stays at or below perr.
func (ch *Chip) CoreFreqAtPerr(i int, vdd, perr float64) float64 {
	return ch.freqAt(i, ch.timing(i, vdd), ch.Cfg.Tech.PerrQuantile(perr))
}

// CoreFreqsAt writes core i's highest frequency at vdd for each
// path-delay quantile zs[g] (tech.Params.PerrQuantile of an error-rate
// target) into out[g]. It evaluates the core's timing once; each entry
// equals CoreFreqAtPerr at the quantile's target bit for bit.
func (ch *Chip) CoreFreqsAt(i int, vdd float64, zs, out []float64) {
	t := ch.timing(i, vdd)
	for g, z := range zs {
		out[g] = ch.freqAt(i, t, z)
	}
}

// CorePerr returns core i's per-cycle timing error probability when
// clocked at f GHz under supply vdd.
func (ch *Chip) CorePerr(i int, vdd, f float64) float64 {
	co := ch.Cores[i]
	// Leff slows the core: its paths see an effectively higher clock.
	return ch.Cfg.Tech.PerrPerCycle(f*(1+co.LeffDev), vdd, co.Vth(ch.Cfg.Tech))
}

// Leakage damping: a core's maximum frequency is set by its slowest
// critical path (an extreme value of the local Vth distribution), but
// its leakage is the average over millions of transistors, so the
// core-to-core leakage spread is much milder than the fmax spread.
const (
	leakVthDamp   = 0.3
	leakLeffCoeff = 1.0
)

// CoreStaticPower returns core i's leakage power in W at supply vdd,
// with the damped dependence on the local Vth and Leff deviations.
func (ch *Chip) CoreStaticPower(i int, vdd float64) float64 {
	co := ch.Cores[i]
	vthLeak := ch.Cfg.Tech.VthNom * (1 + leakVthDamp*co.VthDev)
	return ch.Cfg.Tech.StaticPowerK(ch.staticK, vdd, vthLeak) * math.Exp(-leakLeffCoeff*co.LeffDev)
}

// CorePower returns core i's power in W at supply vdd and frequency f,
// including its leakage dependence on the local Vth and Leff.
func (ch *Chip) CorePower(i int, vdd, f float64) float64 {
	return ch.Cfg.Tech.DynPower(vdd, f) + ch.CoreStaticPower(i, vdd)
}

// ClusterSlowestCore returns the index of the slowest core of cluster c
// at supply vdd (the core that dictates the cluster's f domain).
func (ch *Chip) ClusterSlowestCore(c int, vdd float64) int {
	return ch.slowestCore(c, func(i int) float64 { return ch.CoreFmax(i, vdd) })
}

// slowestCore returns the core of cluster c with the lowest fmax, the
// first one on a tie.
func (ch *Chip) slowestCore(c int, fmax func(i int) float64) int {
	lo, hi := ch.ClusterCores(c)
	best, bestF := lo, math.Inf(1)
	for i := lo; i < hi; i++ {
		if f := fmax(i); f < bestF {
			best, bestF = i, f
		}
	}
	return best
}

// ClusterCores returns the core index range [lo, hi) of cluster c.
func (ch *Chip) ClusterCores(c int) (lo, hi int) {
	return c * ch.Cfg.CoresPer, (c + 1) * ch.Cfg.CoresPer
}

// SelectPolicy chooses which cores engage in computation.
type SelectPolicy int

// Core-selection policies.
const (
	// SelectEfficient picks the cores with the best safe-frequency per
	// Watt, the paper's default ("we pick the most energy-efficient
	// NNTV cores").
	SelectEfficient SelectPolicy = iota
	// SelectFastest picks the cores with the highest safe frequency.
	SelectFastest
	// SelectSequential picks cores in layout order, a variation-blind
	// baseline.
	SelectSequential
)

// String names the policy.
func (p SelectPolicy) String() string {
	switch p {
	case SelectEfficient:
		return "efficient"
	case SelectFastest:
		return "fastest"
	case SelectSequential:
		return "sequential"
	}
	return fmt.Sprintf("SelectPolicy(%d)", int(p))
}

// SelectCores returns the IDs of n cores chosen under the policy at
// supply vdd, ordered best-first. It returns fewer than n only if the
// chip has fewer cores. The efficient and fastest orders are copied
// from the chip's CoreTable at vdd, so the caller owns the slice.
func (ch *Chip) SelectCores(n int, vdd float64, policy SelectPolicy) []int {
	ids := make([]int, min(n, len(ch.Cores)))
	switch policy {
	case SelectEfficient, SelectFastest:
		copy(ids, ch.CoreTable(vdd).Order(policy))
	default: // SelectSequential keeps layout order
		for i := range ids {
			ids[i] = i
		}
	}
	return ids
}

// SetFreq returns the frequency at which a set of engaged cores can run
// together: the minimum over the set of each core's frequency at the
// target per-cycle error probability (ErrorFreePerr for safe
// operation). Accordion runs all engaged cores at one f (Section 4).
func (ch *Chip) SetFreq(cores []int, vdd, perr float64) float64 {
	z := ch.Cfg.Tech.PerrQuantile(perr)
	f := math.Inf(1)
	for _, i := range cores {
		if fi := ch.freqAt(i, ch.timing(i, vdd), z); fi < f {
			f = fi
		}
	}
	if math.IsInf(f, 1) {
		return 0
	}
	return f
}

// CoreTable is a chip's per-core characterization at one supply
// voltage: each core's critical-path timing, safe frequency and
// leakage, and the Efficient and Fastest engagement orders. It depends
// on (chip, Vdd) alone, so Chip.CoreTable builds it once per supply
// and SelectCores, the power model and every solver on the chip share
// it. Each entry is the value the per-core method computes (timing,
// CoreSafeFreq, CoreStaticPower) bit for bit. The slices are shared:
// read them, never write them.
type CoreTable struct {
	Vdd      float64
	Timing   []tech.Timing // each core's critical-path delay distribution
	SafeFreq []float64     // GHz, CoreSafeFreq
	Leakage  []float64     // W, CoreStaticPower

	ch                 *Chip
	efficient, fastest ranking
}

// ranking is an engagement order a CoreTable sorts on first use: most
// tables are read under one policy or none.
type ranking struct {
	once sync.Once
	ids  []int
}

// coreTablesPerChip bounds each chip's CoreTable memo. A population
// chip reads two tables, at VddNTV and at the STV nominal; a supply
// sweep pushes them out, and they are rebuilt on the next use.
const coreTablesPerChip = 2

// CoreTable returns the chip's per-core table at supply vdd, building
// it on first use. The chip keeps the coreTablesPerChip tables built
// last, and concurrent callers share one build.
func (ch *Chip) CoreTable(vdd float64) *CoreTable {
	t, _ := ch.tables.Do(math.Float64bits(vdd), func() (*CoreTable, error) {
		n := len(ch.Cores)
		t := &CoreTable{
			Vdd:      vdd,
			Timing:   make([]tech.Timing, n),
			SafeFreq: make([]float64, n),
			Leakage:  make([]float64, n),
			ch:       ch,
		}
		for i := range ch.Cores {
			t.Timing[i] = ch.timing(i, vdd)
			t.SafeFreq[i] = ch.freqAt(i, t.Timing[i], ch.zSafe)
			t.Leakage[i] = ch.CoreStaticPower(i, vdd)
		}
		return t, nil
	})
	return t
}

// Order returns every core id in SelectCores order under policy p at
// the table's supply, ranking the cores on the first call; it is nil
// for a policy other than SelectEfficient and SelectFastest. The slice
// is shared: read it, never write it.
func (t *CoreTable) Order(p SelectPolicy) []int {
	switch p {
	case SelectFastest:
		t.fastest.once.Do(func() { t.fastest.ids = rankDescending(t.SafeFreq) })
		return t.fastest.ids
	case SelectEfficient:
		t.efficient.once.Do(func() {
			// Greedy per-core performance-per-Watt at the core's own
			// safe frequency, the paper's "most energy-efficient NNTV
			// cores". Note the set-level coupling this greedy ignores:
			// the slowest engaged core caps the whole set's frequency,
			// so at voltages well above VddNTV (where frequency spreads
			// compress and leakage differences dominate the metric) the
			// ordering can pull slow, cool cores forward and cost set
			// frequency.
			eff := make([]float64, len(t.SafeFreq))
			for i, f := range t.SafeFreq {
				if p := t.Power(i, f); p > 0 {
					eff[i] = f / p
				}
			}
			t.efficient.ids = rankDescending(eff)
		})
		return t.efficient.ids
	}
	return nil
}

// rankDescending returns the indices of key sorted by key, highest
// first.
func rankDescending(key []float64) []int {
	ids := make([]int, len(key))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return key[ids[a]] > key[ids[b]] })
	return ids
}

// Fmax is CoreFmax(i, t.Vdd).
func (t *CoreTable) Fmax(i int) float64 { return t.ch.fmax(i, t.Timing[i]) }

// FreqsAt is CoreFreqsAt(i, t.Vdd, zs, out), from the stored timing.
func (t *CoreTable) FreqsAt(i int, zs, out []float64) {
	for g, z := range zs {
		out[g] = t.ch.freqAt(i, t.Timing[i], z)
	}
}

// Power is CorePower(i, t.Vdd, f).
func (t *CoreTable) Power(i int, f float64) float64 {
	return t.ch.Cfg.Tech.DynPower(t.Vdd, f) + t.Leakage[i]
}

// SlowestCore is ClusterSlowestCore(c, t.Vdd).
func (t *CoreTable) SlowestCore(c int) int { return t.ch.slowestCore(c, t.Fmax) }

// Summary bundles the chip-level metrics the Monte-Carlo convergence
// series track per drawn chip, all evaluated at the chip's own
// VddNTV: the fastest core's fmax, the operating voltage itself, the
// whole-chip power with every core at its safe frequency, and the mean
// per-cycle timing-error probability when every core is clocked at the
// population-relevant median core fmax.
type Summary struct {
	FmaxGHz float64 // fastest core's maximum frequency at VddNTV
	VddMINV float64 // chip-wide VddNTV (max per-cluster VddMIN)
	PowerW  float64 // sum of per-core power at each core's safe frequency
	ErrRate float64 // mean CorePerr at the median core's fmax
}

// SummaryMetrics computes the chip's Summary. It walks every core
// three times, which costs more than drawing the chip, so SampleCtx
// runs it only in a monitored context.
func (ch *Chip) SummaryMetrics() Summary {
	vdd := ch.VddNTV()
	n := len(ch.Cores)
	fmaxes := make([]float64, n)
	s := Summary{VddMINV: vdd}
	for i := 0; i < n; i++ {
		fmaxes[i] = ch.CoreFmax(i, vdd)
		if fmaxes[i] > s.FmaxGHz {
			s.FmaxGHz = fmaxes[i]
		}
		s.PowerW += ch.CorePower(i, vdd, ch.CoreSafeFreq(i, vdd))
	}
	sort.Float64s(fmaxes)
	median := fmaxes[n/2]
	for i := 0; i < n; i++ {
		s.ErrRate += ch.CorePerr(i, vdd, median)
	}
	s.ErrRate /= float64(n)
	return s
}

// observeConvergence streams the chip's Summary into the Monte-Carlo
// convergence series.
func (ch *Chip) observeConvergence() {
	s := ch.SummaryMetrics()
	serFmax.Observe(s.FmaxGHz)
	serVddMIN.Observe(s.VddMINV)
	serPower.Observe(s.PowerW)
	serErrRate.Observe(s.ErrRate)
}
