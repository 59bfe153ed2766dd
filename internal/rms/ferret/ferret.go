// Package ferret reimplements PARSEC's ferret kernel: content-based
// similarity search over an image database. Query images are
// partitioned into regions; per-region feature vectors are matched
// against the database and the top-n most similar images are returned
// per query.
//
// The Accordion input is the size factor governing the segmentation
// granularity: it scales how many regions a query image is partitioned
// into, which dictates both the work per query and the search accuracy
// (Table 3 classifies both dependencies as complex — region count grows
// superlinearly with the factor). Quality per query is the fraction of
// returned images shared with the hyper-accurate (full-resolution)
// outcome, exactly the paper's 1 - [common image count]/n relative
// error.
//
// Data-parallel tasks scan database shards; a dropped shard's
// candidates are simply absent from the ranking the control core
// merges, so errors degrade recall without corrupting control.
package ferret

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TopN is the number of similar images returned per query.
const TopN = 10

// Benchmark is the ferret kernel. Construct with New.
type Benchmark struct {
	db *workload.FeatureDB
}

// New builds the ferret benchmark over its standard synthetic database.
func New() (*Benchmark, error) {
	db, err := workload.NewFeatureDB(16, 16, 32, 16, 8, 0xFE88E7)
	if err != nil {
		return nil, err
	}
	return &Benchmark{db: db}, nil
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "ferret" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "similarity search" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "size factor" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "based on number of common images" }

// DefaultInput implements rms.Benchmark.
func (b *Benchmark) DefaultInput() float64 { return 1.0 }

// HyperInput implements rms.Benchmark: full-resolution segmentation.
func (b *Benchmark) HyperInput() float64 { return 4.0 }

// Sweep implements rms.Benchmark. Points are chosen so each maps to a
// distinct region count (the problem size is discrete in the
// segmentation granularity).
func (b *Benchmark) Sweep() []float64 {
	out := make([]float64, 0, 9)
	for _, r := range []float64{2, 3, 4, 5, 6, 8, 10, 12, 14} {
		// Invert regions(input) = ceil(4 * input^1.3) at the exact
		// boundary, nudged down so ceil lands on r.
		out = append(out, math.Pow(r/4, 1/1.3)*0.999)
	}
	return out
}

// regions returns the query-segmentation region count at a size factor:
// superlinear in the factor (Table 3's "complex" dependence), capped at
// the full resolution.
func (b *Benchmark) regions(input float64) int {
	r := int(math.Ceil(4 * math.Pow(input, 1.3)))
	if r < 1 {
		r = 1
	}
	if r > b.db.RegionsFull {
		r = b.db.RegionsFull
	}
	return r
}

// ProblemSize implements rms.Benchmark: proportional to the number of
// feature comparisons, i.e. to the region count.
func (b *Benchmark) ProblemSize(input float64) float64 {
	return float64(b.regions(input)) / float64(b.regions(b.DefaultInput()))
}

// DependencePS implements rms.Benchmark (Table 3).
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Complex }

// DependenceQ implements rms.Benchmark (Table 3).
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Complex }

// DefaultThreads implements rms.Benchmark.
func (b *Benchmark) DefaultThreads() int { return 64 }

// Profile implements rms.Benchmark: an irregular, database-walking
// pipeline with poor locality.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   1.5e10,
		SerialFrac:   0.005,
		CPIBase:      1.0,
		MissPerOp:    0.0016,
		MemLatencyNs: 80,
	}
}

// similarity returns the (negated) dissimilarity of a query's region
// set to a database image's full region set: the mean over query
// regions of the minimum squared distance to any database region.
func similarity(query, dbimg [][]float64) (score float64, comparisons int) {
	total := 0.0
	for _, qr := range query {
		best := math.Inf(1)
		// Two database regions per pass keep two sums in flight. Each
		// sum keeps its own order, and best takes them in region order;
		// an odd last region pairs with itself.
		for j := 0; j < len(dbimg); j += 2 {
			a := dbimg[j][:len(qr)]
			c := a
			if j+1 < len(dbimg) {
				c = dbimg[j+1][:len(qr)]
			}
			d0, d1 := 0.0, 0.0
			for k, q := range qr {
				e0 := q - a[k]
				d0 += e0 * e0
				e1 := q - c[k]
				d1 += e1 * e1
			}
			if d0 < best {
				best = d0
			}
			if d1 < best {
				best = d1
			}
		}
		comparisons += len(dbimg)
		total += best
	}
	return -total / float64(len(query)), comparisons
}

// ranking holds the best TopN candidates offered so far, best first:
// score descending, then id ascending.
type ranking struct {
	n     int
	id    [TopN]int
	score [TopN]float64
}

// offer inserts a candidate where it ranks, if it ranks among the best
// TopN. The order is strict and total over distinct ids and non-NaN
// scores (similarity is finite, and CorruptValue maps NaN and Inf to
// MaxFloat64), so the list is the head of the fully sorted candidate
// list, whatever the offer order.
func (r *ranking) offer(id int, score float64) {
	i := r.n
	if i == TopN {
		if !ranksAbove(id, score, r.id[i-1], r.score[i-1]) {
			return
		}
		i--
	} else {
		r.n++
	}
	for ; i > 0 && ranksAbove(id, score, r.id[i-1], r.score[i-1]); i-- {
		r.id[i], r.score[i] = r.id[i-1], r.score[i-1]
	}
	r.id[i], r.score[i] = id, score
}

// ranksAbove reports whether candidate (id, score) ranks above (id2,
// score2).
func ranksAbove(id int, score float64, id2 int, score2 float64) bool {
	if score > score2 {
		return true
	}
	if score < score2 {
		return false
	}
	return id < id2
}

// Run implements rms.Benchmark. The output encodes, per query, the
// ranked TopN database image IDs.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	if plan.Mode == fault.Invert {
		return rms.Result{}, fmt.Errorf("ferret: the Invert error mode has no decision variable to invert")
	}
	nRegions := b.regions(input)
	nImages := len(b.db.Images)
	ops := 0.0

	out := make([]float64, 0, len(b.db.Queries)*TopN)
	for _, query := range b.db.Queries {
		q := workload.Coarsen(query, nRegions)
		var top ranking
		// Data-parallel phase: each task scans one database shard.
		for t := 0; t < threads; t++ {
			if plan.Mode == fault.Drop && plan.Infected(t) {
				plan.Note(t)
				continue // shard results never reach the control core
			}
			corrupt := plan.Active() && plan.Mode != fault.Drop && plan.Infected(t)
			if corrupt {
				plan.Note(t)
			}
			lo, hi := t*nImages/threads, (t+1)*nImages/threads
			for i := lo; i < hi; i++ {
				score, cmp := similarity(q, b.db.Images[i])
				ops += float64(cmp)
				if corrupt {
					score = plan.CorruptValue(score, t)
				}
				top.offer(i, score)
			}
		}
		// Control phase: the merged ranking (the CC's reduce step).
		for k := 0; k < TopN; k++ {
			if k < top.n {
				out = append(out, float64(top.id[k]))
			} else {
				out = append(out, -1)
			}
		}
	}
	return rms.Result{Output: out, Ops: ops}, nil
}

// Quality implements rms.Benchmark: the mean, over queries, of the
// fraction of returned images in common with the reference outcome.
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	if len(run.Output) != len(ref.Output) || len(ref.Output) == 0 || len(ref.Output)%TopN != 0 {
		return 0, fmt.Errorf("ferret: malformed outputs")
	}
	queries := len(ref.Output) / TopN
	total := 0.0
	for q := 0; q < queries; q++ {
		refSet := map[int]bool{}
		for k := 0; k < TopN; k++ {
			refSet[int(ref.Output[q*TopN+k])] = true
		}
		common := 0
		for k := 0; k < TopN; k++ {
			if id := int(run.Output[q*TopN+k]); id >= 0 && refSet[id] {
				common++
			}
		}
		total += float64(common) / TopN
	}
	return total / float64(queries), nil
}

// Trace implements rms.Benchmark: database probing scatters reads
// across the feature store.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.RandomUniform, WorkingSetBytes: 8 << 20,
		MemFrac: 0.32, HotFrac: 0.995, HotBytes: 16 * 1024, Seed: 0xFE8,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
