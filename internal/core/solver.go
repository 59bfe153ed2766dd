package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/chip"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/tech"
	"repro/internal/telemetry"
)

// OperatingPoint is one point of an iso-execution-time pareto front
// (Figures 6 and 7): a problem size together with the (N, f) that
// brings the NTV execution time to the STV execution time, and the
// resulting power, energy efficiency and quality — all also normalized
// to the STV baseline.
type OperatingPoint struct {
	Benchmark string
	Mode      Mode
	Flavor    Flavor

	Input       float64 // the Accordion input value
	ProblemSize float64 // relative to the default problem size

	N        int     // NNTV: cores engaged
	Freq     float64 // GHz: the common data-core frequency
	Perr     float64 // per-cycle timing-error probability at Freq
	ExecTime float64 // seconds
	Power    float64 // W

	// Normalized coordinates of Figures 6 and 7.
	RelN           float64 // NNTV / NSTV
	RelPower       float64 // PowerNTV / PowerSTV
	RelProblemSize float64 // = ProblemSize
	RelQuality     float64 // QNTV / QSTV
	RelMIPSPerWatt float64 // (MIPS/W)NTV / (MIPS/W)STV

	Feasible bool
	Limit    string // "", "cores", "power", "quality"
}

// Solver extracts iso-execution-time operating points for one benchmark
// on one variation-afflicted chip sample.
type Solver struct {
	Chip    *chip.Chip
	Power   *power.Model
	Bench   rms.Benchmark
	Quality *QualityModel

	// QualityFloor marks points with RelQuality below it as
	// quality-limited (0 disables the check).
	QualityFloor float64

	policy          chip.SelectPolicy
	clusterGranular bool

	baseline power.STVBaseline
	profile  sim.WorkProfile
	vdd      float64
	order    []int // engagement order of cores under Policy

	perrGrid  []float64
	logPerr   []float64   // log10 of perrGrid, the interpolation abscissae
	prefixMin [][]float64 // prefixMin[n][g]: min f over first n+1 cores at perrGrid[g]
	fCC       float64     // control-core frequency (fastest safe core)
}

// NewSolver prepares a solver; the quality model must belong to the
// benchmark.
func NewSolver(ch *chip.Chip, pm *power.Model, b rms.Benchmark, qm *QualityModel) (*Solver, error) {
	if qm.Benchmark != b.Name() {
		return nil, fmt.Errorf("core: quality model is for %s, benchmark is %s", qm.Benchmark, b.Name())
	}
	s := &Solver{
		Chip:    ch,
		Power:   pm,
		Bench:   b,
		Quality: qm,
		policy:  chip.SelectEfficient,
	}
	s.baseline = pm.Baseline()
	s.profile = b.Profile()
	s.vdd = ch.VddNTV()
	s.rebuild()
	return s, nil
}

// Policy returns the current core-engagement policy.
func (s *Solver) Policy() chip.SelectPolicy { return s.policy }

// Vdd returns the near-threshold supply the solver operates at.
func (s *Solver) Vdd() float64 { return s.vdd }

// SetVdd overrides the operating supply (default: the chip's VddNTV)
// and rebuilds the frequency tables. Voltages below the chip's VddNTV
// are rejected: some memory block could not hold state there.
func (s *Solver) SetVdd(vdd float64) error {
	if vdd < s.Chip.VddNTV() {
		return fmt.Errorf("core: Vdd %.3f below the chip's VddNTV %.3f", vdd, s.Chip.VddNTV())
	}
	if vdd > s.Chip.Cfg.Tech.VddNomSTV {
		return fmt.Errorf("core: Vdd %.3f beyond the STV nominal", vdd)
	}
	s.vdd = vdd
	s.rebuild()
	return nil
}

// SetPolicy changes the core-engagement order (the paper uses the most
// energy-efficient cores; fastest and sequential exist for ablation)
// and rebuilds the frequency tables.
func (s *Solver) SetPolicy(p chip.SelectPolicy) {
	s.policy = p
	s.rebuild()
}

// SetClusterGranular switches between per-core engagement (default)
// and whole-cluster engagement. The paper assigns tasks at the
// granularity of clusters (Section 5.1): engaging any core of a cluster
// engages all eight, and the cluster order follows the policy applied
// to each cluster's slowest member.
func (s *Solver) SetClusterGranular(on bool) {
	s.clusterGranular = on
	s.rebuild()
}

// ClusterGranular reports the engagement granularity.
func (s *Solver) ClusterGranular() bool { return s.clusterGranular }

// rebuild derives the engagement order and the frequency table from the
// chip's CoreTable at the solver's supply, which the chip shares with
// every other solver on it.
func (s *Solver) rebuild() {
	tab := s.Chip.CoreTable(s.vdd)
	if s.clusterGranular {
		s.order = s.clusterOrder(tab)
	} else {
		s.order = s.Chip.SelectCores(len(s.Chip.Cores), s.vdd, s.policy)
	}
	s.buildFreqTable(tab)
}

// clusterOrder ranks whole clusters by the policy metric of their
// slowest core and emits core ids cluster by cluster.
func (s *Solver) clusterOrder(tab *chip.CoreTable) []int {
	type rank struct {
		id  int
		key float64
	}
	ranks := make([]rank, s.Chip.Cfg.Clusters)
	for c := range ranks {
		slow := tab.SlowestCore(c)
		f := tab.SafeFreq[slow]
		key := f
		if s.policy == chip.SelectEfficient {
			if p := tab.Power(slow, f); p > 0 {
				key = f / p
			}
		}
		if s.policy == chip.SelectSequential {
			key = -float64(c)
		}
		ranks[c] = rank{c, key}
	}
	sort.Slice(ranks, func(a, b int) bool { return ranks[a].key > ranks[b].key })
	out := make([]int, 0, len(s.Chip.Cores))
	for _, r := range ranks {
		lo, hi := s.Chip.ClusterCores(r.id)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
	}
	return out
}

// Baseline returns the STV reference operating point.
func (s *Solver) Baseline() power.STVBaseline { return s.baseline }

// STVTime returns the target execution time: the default problem size
// on NSTV cores at the nominal STV frequency (variation neglected at
// STV, Section 6.3).
func (s *Solver) STVTime() float64 {
	return s.profile.ExecTime(1, s.baseline.N, s.baseline.Freq, s.baseline.Freq)
}

// buildFreqTable precomputes, for every engagement prefix and a grid of
// per-cycle error-rate targets, the common frequency of the prefix (the
// minimum member frequency at that error rate). Interpolating the
// prefix minima across the grid approximates min-of-interpolations
// exactly whenever one slowest core dominates the prefix, which is the
// regime the chip operates in.
//
// Each core's timing comes from the chip's CoreTable and each grid
// target's quantile is evaluated once per build (CoreTable.FreqsAt), in
// the same pass that finds the control-core frequency.
func (s *Solver) buildFreqTable(tab *chip.CoreTable) {
	s.perrGrid = []float64{tech.ErrorFreePerr, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2}
	g := len(s.perrGrid)
	s.logPerr = make([]float64, g)
	zs := make([]float64, g)
	for k, p := range s.perrGrid {
		s.logPerr[k] = math.Log10(p)
		zs[k] = s.Chip.Cfg.Tech.PerrQuantile(p)
	}
	n := len(s.order)
	s.prefixMin = make([][]float64, n)
	rows := make([]float64, n*g)
	running := make([]float64, g)
	for k := range running {
		running[k] = math.Inf(1)
	}
	// Control cores are the chip's fastest, most reliable cores; they
	// run error-free. The order visits every core, and its first grid
	// column is the error-free target, so fCC is that column's maximum.
	s.fCC = 0
	for i, id := range s.order {
		row := rows[i*g : (i+1)*g]
		tab.FreqsAt(id, zs, row)
		if row[0] > s.fCC {
			s.fCC = row[0]
		}
		for k, f := range row {
			if f < running[k] {
				running[k] = f
			}
			row[k] = running[k]
		}
		s.prefixMin[i] = row
	}
}

// setFreq returns the common frequency of the first n cores at a
// per-cycle error-rate target, interpolated on the precomputed grid.
func (s *Solver) setFreq(n int, perr float64) float64 {
	row := s.prefixMin[n-1]
	lp := math.Log10(mathx.Clamp(perr, s.perrGrid[0], s.perrGrid[len(s.perrGrid)-1]))
	return mathx.InterpMonotone(s.logPerr, row, lp)
}

// taskPerr returns the paper's Section 6.3 speculative error-rate
// target: one expected timing error per infected task, Perr = 1/e for a
// task of e cycles.
func (s *Solver) taskPerr(ps float64, n int, f float64) float64 {
	e := s.profile.CyclesPerTask(ps, n, f)
	if e <= 0 {
		return tech.ErrorFreePerr
	}
	return mathx.Clamp(1/e, tech.ErrorFreePerr, 1e-2)
}

// Solve finds the iso-execution-time operating point for one Accordion
// input under the given flavor: the smallest engaged core count whose
// common frequency brings the NTV execution time to (or below) the STV
// execution time.
func (s *Solver) Solve(input float64, flavor Flavor) (OperatingPoint, error) {
	ps := s.Bench.ProblemSize(input)
	if ps <= 0 {
		return OperatingPoint{}, fmt.Errorf("core: non-positive problem size at input %g", input)
	}
	target := s.STVTime()
	maxN := len(s.order)

	perr := tech.ErrorFreePerr
	for n := 1; n <= maxN; n++ {
		f := s.setFreq(n, perr)
		if flavor == Speculative {
			// Fixed point of (f -> task error rate -> f).
			for iter := 0; iter < 4; iter++ {
				perr = s.taskPerr(ps, n, f)
				f = s.setFreq(n, perr)
			}
		} else {
			perr = tech.ErrorFreePerr
		}
		t := s.profile.ExecTime(ps, n, f, s.fCC)
		if t <= target {
			return s.finishPoint(ps, input, flavor, n, f, perr, t), nil
		}
	}
	// N-limited: even every core of the chip cannot reach the STV
	// execution time. Report the best the chip can do.
	f := s.setFreq(maxN, perr)
	t := s.profile.ExecTime(ps, maxN, f, s.fCC)
	op := s.finishPoint(ps, input, flavor, maxN, f, perr, t)
	op.Feasible = false
	op.Limit = "cores"
	return op, nil
}

// Front solves every input of the benchmark's sweep under one flavor,
// producing one iso-execution-time pareto front of Figures 6 and 7
// (problem size, and hence mode, varies along it). The sweep points
// are independent — Solve never writes solver state — so they fan out
// across parallel.Workers() goroutines with results in sweep order,
// identical to a sequential scan.
func (s *Solver) Front(flavor Flavor) ([]OperatingPoint, error) {
	return s.FrontCtx(context.Background(), flavor)
}

// Solver sweep stages: one front, and each input solved on it.
var (
	stSolverFront = telemetry.NewStage("core.solver.front")
	stSolve       = telemetry.NewStage("core.solver.solve")
)

// FrontCtx is Front with ctx's stages as parents: the sweep is a
// core.solver.front stage and each solved input a core.solver.solve
// stage under the pool worker that ran it.
func (s *Solver) FrontCtx(ctx context.Context, flavor Flavor) ([]OperatingPoint, error) {
	st := stSolverFront.Begin(ctx).Str("bench", s.Bench.Name()).Str("flavor", flavor.String())
	defer st.End()
	ctx = st.Context(ctx)
	sweep := s.Bench.Sweep()
	return parallel.Map(ctx, len(sweep), func(wctx context.Context, i int) (OperatingPoint, error) {
		defer stSolve.Begin(wctx).End()
		return s.Solve(sweep[i], flavor)
	})
}

// SolveBest returns the most energy-efficient feasible operating point
// for one input under the flavor: instead of stopping at the smallest
// iso-time core count the way Solve does, it scans every admissible N
// and keeps the point with the highest MIPS/W that respects the power
// budget (and quality floor). This is the operating point a deployment
// would actually pick off the pareto front.
func (s *Solver) SolveBest(input float64, flavor Flavor) (OperatingPoint, error) {
	ps := s.Bench.ProblemSize(input)
	if ps <= 0 {
		return OperatingPoint{}, fmt.Errorf("core: non-positive problem size at input %g", input)
	}
	target := s.STVTime()
	var best OperatingPoint
	found := false
	perr := tech.ErrorFreePerr
	for n := 1; n <= len(s.order); n++ {
		f := s.setFreq(n, perr)
		if flavor == Speculative {
			for iter := 0; iter < 4; iter++ {
				perr = s.taskPerr(ps, n, f)
				f = s.setFreq(n, perr)
			}
		} else {
			perr = tech.ErrorFreePerr
		}
		t := s.profile.ExecTime(ps, n, f, s.fCC)
		if t > target {
			continue
		}
		op := s.finishPoint(ps, input, flavor, n, f, perr, t)
		if !op.Feasible {
			continue
		}
		if !found || op.RelMIPSPerWatt > best.RelMIPSPerWatt {
			best, found = op, true
		}
	}
	if !found {
		// Fall back to the minimal-N solution, which carries the limit
		// diagnosis.
		return s.Solve(input, flavor)
	}
	return best, nil
}

// finishPoint fills in the derived metrics and feasibility checks for a
// candidate (n, f) solution.
func (s *Solver) finishPoint(ps, input float64, flavor Flavor, n int, f, perr, t float64) OperatingPoint {
	op := OperatingPoint{
		Benchmark:      s.Bench.Name(),
		Mode:           ModeOf(ps),
		Flavor:         flavor,
		Input:          input,
		ProblemSize:    ps,
		RelProblemSize: ps,
		N:              n,
		Freq:           f,
		Perr:           perr,
		ExecTime:       t,
	}
	engaged := s.order[:n]
	op.Power = s.Power.Engaged(engaged, s.vdd, f).Total()
	op.RelN = float64(n) / float64(s.baseline.N)
	op.RelPower = op.Power / s.baseline.Power
	front := s.Quality.Default
	if flavor == Speculative {
		front = s.Quality.SpeculativeFront()
	}
	op.RelQuality = s.Quality.RelativeQuality(front, ps)
	mipsNTV := s.profile.MIPS(ps, op.ExecTime) / op.Power
	mipsSTV := s.profile.MIPS(1, s.STVTime()) / s.baseline.Power
	op.RelMIPSPerWatt = mipsNTV / mipsSTV
	op.Feasible = true
	if op.Power > s.Power.Budget() {
		op.Feasible = false
		op.Limit = "power"
	} else if s.QualityFloor > 0 && op.RelQuality < s.QualityFloor {
		op.Feasible = false
		op.Limit = "quality"
	}
	return op
}
