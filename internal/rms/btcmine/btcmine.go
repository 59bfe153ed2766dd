// Package btcmine implements the strict weak-scaling workload the
// paper's Discussion (Section 7) points to: proof-of-work search in the
// style of bitcoin mining (Taylor, CASES 2013). The problem size is the
// nonce-space volume searched per block; it partitions perfectly across
// cores with constant per-thread work — weak scaling in the strict
// sense, unlike the six RMS benchmarks whose per-thread work grows with
// the problem.
//
// The Accordion input is the searched nonce volume (in units of 2^16
// nonces). Quality is the fraction of the expected proof-of-work
// solutions actually found: dropped shards lose exactly their share of
// solutions and nothing else, the cleanest possible Drop response.
package btcmine

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/rms"
	"repro/internal/sim"
)

// Benchmark is the proof-of-work kernel. Construct with New.
type Benchmark struct {
	header     [32]byte
	targetBits uint // leading zero bits a digest must have to count
}

// New builds the mining benchmark over a fixed block header.
func New() *Benchmark {
	b := &Benchmark{targetBits: 12}
	for i := range b.header {
		b.header[i] = byte(0xB1*i + 7)
	}
	return b
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "btcmine" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "proof-of-work search" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "nonce volume (64Ki units)" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "solutions found / expected" }

// DefaultInput implements rms.Benchmark: 16 * 64Ki = 1Mi nonces.
func (b *Benchmark) DefaultInput() float64 { return 16 }

// HyperInput implements rms.Benchmark.
func (b *Benchmark) HyperInput() float64 { return 64 }

// Sweep implements rms.Benchmark.
func (b *Benchmark) Sweep() []float64 {
	return []float64{4, 6, 8, 12, 16, 22, 30, 40, 52}
}

// ProblemSize implements rms.Benchmark: exactly linear in the volume.
func (b *Benchmark) ProblemSize(input float64) float64 {
	return input / b.DefaultInput()
}

// DependencePS implements rms.Benchmark.
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Linear }

// DependenceQ implements rms.Benchmark.
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Linear }

// DefaultThreads implements rms.Benchmark.
func (b *Benchmark) DefaultThreads() int { return 64 }

// Profile implements rms.Benchmark: pure compute, zero serial fraction
// (strict weak scaling), negligible memory traffic.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   1.0e10,
		SerialFrac:   0.0005,
		CPIBase:      1.0,
		MissPerOp:    0.0001,
		MemLatencyNs: 80,
	}
}

// headerWords is the nonce-independent part of digest, loaded once per
// run: the header's four little-endian words, the third premultiplied
// by its constant. (Four fields keep it in registers.)
type headerWords struct{ w0, w1, w2, w3 uint64 }

func (b *Benchmark) headerWords() headerWords {
	return headerWords{
		w0: binary.LittleEndian.Uint64(b.header[:8]),
		w1: binary.LittleEndian.Uint64(b.header[8:16]),
		w2: binary.LittleEndian.Uint64(b.header[16:24]) * 0x9E3779B97F4A7C15,
		w3: binary.LittleEndian.Uint64(b.header[24:32]),
	}
}

// digest is a small, fast, deterministic 64-bit mixer standing in for
// the double-SHA256 of the real protocol; only the statistics of
// "digest below target" matter here. Hoisting the header loads leaves
// its integer operations, and so its bits, unchanged.
func (hw headerWords) digest(nonce uint64) uint64 {
	h := hw.w0 ^ nonce
	h ^= hw.w1
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h ^= hw.w2
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= hw.w3
	return h ^ (h >> 31)
}

// Run implements rms.Benchmark. Threads own contiguous nonce shards;
// a dropped shard's solutions are simply never submitted. The output
// encodes the sorted solution nonces; Ops counts hash evaluations.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	if plan.Mode == fault.Invert {
		return rms.Result{}, fmt.Errorf("btcmine: the Invert error mode has no decision variable to invert")
	}
	volume := uint64(math.Round(input * 65536))
	if volume == 0 {
		volume = 1
	}
	var out []float64
	ops := 0.0
	// A nonce solves when its digest has targetBits leading zero bits.
	hw, shift := b.headerWords(), 64-b.targetBits
	for t := 0; t < threads; t++ {
		lo := uint64(t) * volume / uint64(threads)
		hi := uint64(t+1) * volume / uint64(threads)
		if plan.Mode == fault.Drop && plan.Infected(t) {
			plan.Note(t, -1)
			continue // the shard is never searched
		}
		corrupted := plan.Active() && plan.Mode != fault.Drop && plan.Infected(t)
		if corrupted {
			plan.Note(t, -1)
		}
		ops += float64(hi - lo) // one hash per nonce; integer sums below 2^53 are exact
		for nonce := lo; nonce < hi; nonce++ {
			if hw.digest(nonce)>>shift == 0 {
				v := float64(nonce)
				if corrupted {
					// A corrupted submission is rejected by validation
					// unless it still names a true solution.
					v = plan.CorruptValue(v, t)
					if v != float64(nonce) {
						continue
					}
				}
				out = append(out, v)
			}
		}
	}
	return rms.Result{Output: out, Ops: ops}, nil
}

// Quality implements rms.Benchmark: the fraction of the hyper-accurate
// reference's solutions the run also found (the "common with baseline"
// semantics ferret uses). The reference searches a superset volume, so
// quality grows linearly with the searched volume and sheds exactly the
// dropped shards' share under errors.
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	if len(ref.Output) == 0 {
		return 0, fmt.Errorf("btcmine: reference found no solutions")
	}
	refSet := make(map[float64]bool, len(ref.Output))
	for _, v := range ref.Output {
		refSet[v] = true
	}
	common := 0
	for _, v := range run.Output {
		if refSet[v] {
			common++
		}
	}
	return float64(common) / float64(len(ref.Output)), nil
}

// Trace implements rms.Benchmark: hashing is register-resident compute
// with only rare table references.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.RandomUniform, WorkingSetBytes: 256 * 1024,
		MemFrac: 0.02, HotFrac: 0.990, HotBytes: 8 * 1024, Seed: 0xB7C,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
