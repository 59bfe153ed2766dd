// Package xh264 reimplements the heart of PARSEC's x264 kernel: motion-
// compensated block-transform video encoding under a rate-quality
// quantizer. The first frame is intra-coded; subsequent frames predict
// each 8x8 macroblock from the best-matching block of the previous
// *decoded* frame (a +-4 pixel SAD motion search, as a real encoder's
// reconstruction loop requires), transform the residual with an exact
// 2-D DCT-II, quantize with the H.264-style step size (doubling every
// 6 QP), and reconstruct; the deliverable is the decoded sequence.
//
// The paper's Accordion input is the quantizer QP, where a smaller QP
// means less compression and higher accuracy. To keep the convention
// that increasing the knob grows the problem, the knob here is the
// quantizer precision 52 - QP; raising it increases both the number of
// significant coefficients to code (problem size, a complex dependence)
// and the SSIM fidelity (quality, roughly linear) — matching Table 3's
// classification.
//
// Fault injection follows footnote 1: infected threads are prohibited
// from encoding their macroblocks (x264_slice_write), which the decoder
// conceals as flat mid-gray blocks.
package xh264

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	blockSize   = 8
	frameW      = 64
	frameH      = 64
	numFrames   = 8
	maxQP       = 52
	searchRange = 4 // +- pixels of motion search around the block
)

// Benchmark is the x264 kernel. Construct with New.
type Benchmark struct {
	frames []*mathx.Grid2D
	dct    [blockSize][blockSize]float64 // DCT-II basis matrix

	mu      sync.Mutex
	opsMemo map[int]float64 // fault-free ops by precision, for ProblemSize
}

// New builds the x264 benchmark over its standard synthetic sequence.
func New() *Benchmark {
	b := &Benchmark{
		frames:  workload.VideoFrames(frameW, frameH, numFrames, 0x264),
		opsMemo: map[int]float64{},
	}
	for k := 0; k < blockSize; k++ {
		for n := 0; n < blockSize; n++ {
			c := math.Sqrt(2.0 / blockSize)
			if k == 0 {
				c = math.Sqrt(1.0 / blockSize)
			}
			b.dct[k][n] = c * math.Cos(math.Pi*(float64(n)+0.5)*float64(k)/blockSize)
		}
	}
	return b
}

// Name implements rms.Benchmark.
func (b *Benchmark) Name() string { return "x264" }

// Domain implements rms.Benchmark.
func (b *Benchmark) Domain() string { return "multimedia" }

// AccordionInput implements rms.Benchmark.
func (b *Benchmark) AccordionInput() string { return "quantizer (precision 52-QP)" }

// QualityMetricName implements rms.Benchmark.
func (b *Benchmark) QualityMetricName() string { return "SSIM based" }

// DefaultInput implements rms.Benchmark: precision 26, i.e. QP 26.
func (b *Benchmark) DefaultInput() float64 { return 26 }

// HyperInput implements rms.Benchmark: QP 4, near-lossless.
func (b *Benchmark) HyperInput() float64 { return 48 }

// Sweep implements rms.Benchmark.
func (b *Benchmark) Sweep() []float64 {
	return []float64{14, 17, 20, 23, 26, 29, 32, 36, 40}
}

// qstep returns the quantization step for a precision knob value.
func qstep(precision float64) float64 {
	qp := maxQP - precision
	return math.Pow(2, (qp-4)/6)
}

// ProblemSize implements rms.Benchmark: the encoding work relative to
// the default precision, measured as the actual coefficient-coding work
// of a fault-free encode (memoized; deterministic).
func (b *Benchmark) ProblemSize(input float64) float64 {
	return b.opsAt(input) / b.opsAt(b.DefaultInput())
}

func (b *Benchmark) opsAt(input float64) float64 {
	key := int(math.Round(input * 16))
	b.mu.Lock()
	v, ok := b.opsMemo[key]
	b.mu.Unlock()
	if ok {
		return v
	}
	res, err := b.Run(input, 1, fault.Plan{}, 0)
	if err != nil {
		return math.NaN()
	}
	b.mu.Lock()
	b.opsMemo[key] = res.Ops
	b.mu.Unlock()
	return res.Ops
}

// DependencePS implements rms.Benchmark (Table 3).
func (b *Benchmark) DependencePS() rms.Dependence { return rms.Complex }

// DependenceQ implements rms.Benchmark (Table 3).
func (b *Benchmark) DependenceQ() rms.Dependence { return rms.Linear }

// DefaultThreads implements rms.Benchmark.
func (b *Benchmark) DefaultThreads() int { return 64 }

// Profile implements rms.Benchmark.
func (b *Benchmark) Profile() sim.WorkProfile {
	return sim.WorkProfile{
		OpsPerUnit:   1.2e10,
		SerialFrac:   0.005,
		CPIBase:      1.0,
		MissPerOp:    0.0010,
		MemLatencyNs: 80,
	}
}

// Run implements rms.Benchmark. The output is the decoded pixel stream,
// frame-major. Ops counts transform work plus per-significant-
// coefficient entropy-coding work.
func (b *Benchmark) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	if err := rms.ValidateInput(b.Name(), input); err != nil {
		return rms.Result{}, err
	}
	if err := rms.ValidateThreads(b.Name(), threads); err != nil {
		return rms.Result{}, err
	}
	if input >= maxQP {
		return rms.Result{}, fmt.Errorf("x264: precision %g implies a non-positive QP", input)
	}
	if plan.Mode == fault.Invert {
		return rms.Result{}, fmt.Errorf("x264: the Invert error mode has no decision variable to invert")
	}
	step := qstep(input)
	blocksX, blocksY := frameW/blockSize, frameH/blockSize
	blocksPerFrame := blocksX * blocksY
	totalBlocks := numFrames * blocksPerFrame
	out := make([]float64, numFrames*frameW*frameH)
	ops := 0.0

	var blk, coef [blockSize][blockSize]float64
	for mb := 0; mb < totalBlocks; mb++ {
		t := mb * threads / totalBlocks
		frame := mb / blocksPerFrame
		bi := mb % blocksPerFrame
		bx, by := (bi%blocksX)*blockSize, (bi/blocksX)*blockSize
		base := frame * frameW * frameH

		// Slices are per-frame task sets, so uniformly dropped tasks
		// rotate across slice positions from frame to frame.
		if plan.Mode == fault.Drop && plan.Infected((t+frame)%threads) {
			plan.Note((t + frame) % threads)
			// Macroblock encoding prohibited: the decoder conceals the
			// missing block from the co-located block of the previous
			// decoded frame (mid-gray on the first frame).
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					v := 128.0
					if frame > 0 {
						v = out[base-frameW*frameH+(by+y)*frameW+bx+x]
					}
					out[base+(by+y)*frameW+bx+x] = v
				}
			}
			continue
		}
		src := b.frames[frame]
		// Prediction: mid-gray for the intra frame, the best-SAD block
		// of the previous decoded frame (+-searchRange px) otherwise.
		var pred [blockSize][blockSize]float64
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				pred[y][x] = 128
			}
		}
		if frame > 0 {
			prev := out[base-frameW*frameH : base]
			dx, dy, searchOps := motionSearch(src.V, prev, bx, by)
			ops += searchOps
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					pred[y][x] = prev[(by+dy+y)*frameW+bx+dx+x]
				}
			}
		}
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				blk[y][x] = src.At(bx+x, by+y) - pred[y][x]
			}
		}
		b.forwardDCT(&blk, &coef)
		ops += 2 * blockSize * blockSize * blockSize // transform work
		nonzero := 0
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				q := math.Round(coef[y][x] / step)
				if q != 0 {
					nonzero++
				}
				coef[y][x] = q * step
			}
		}
		ops += float64(nonzero) * 220 // entropy-coding + rate-distortion work per level
		b.inverseDCT(&coef, &blk)
		ops += 2 * blockSize * blockSize * blockSize
		corrupt := plan.Active() && plan.Mode != fault.Drop && plan.Infected(t)
		if corrupt {
			plan.Note(t)
		}
		for y := 0; y < blockSize; y++ {
			for x := 0; x < blockSize; x++ {
				v := mathx.Clamp(blk[y][x]+pred[y][x], 0, 255)
				if corrupt {
					v = mathx.Clamp(plan.CorruptValue(v, t), 0, 255)
				}
				out[base+(by+y)*frameW+bx+x] = v
			}
		}
	}
	return rms.Result{Output: out, Ops: ops}, nil
}

// motionSearch returns the displacement (dx, dy), within +-searchRange
// px, of the block of prev that best predicts the block of src at
// (bx, by): the first strict SAD minimum in dy-major, dx-minor order.
// Both frames are frameW-strided. Every candidate costs its full SAD
// work in ops, though its sum stops once it reaches the best so far.
func motionSearch(src, prev []float64, bx, by int) (bestDX, bestDY int, ops float64) {
	bestSAD := math.Inf(1)
	for dy := -searchRange; dy <= searchRange; dy++ {
		for dx := -searchRange; dx <= searchRange; dx++ {
			px, py := bx+dx, by+dy
			if px < 0 || py < 0 || px+blockSize > frameW || py+blockSize > frameH {
				continue
			}
			// A partial sum of |d| >= 0 never falls as rows add to it, so
			// one at bestSAD cannot win; math.Abs differs from a sign
			// branch only on -0, which a sum from +0 absorbs.
			sad := 0.0
			for y := 0; y < blockSize && sad < bestSAD; y++ {
				s := src[(by+y)*frameW+bx : (by+y)*frameW+bx+blockSize]
				p := prev[(py+y)*frameW+px : (py+y)*frameW+px+blockSize]
				for x := range s {
					sad += math.Abs(s[x] - p[x])
				}
			}
			ops += blockSize * blockSize // SAD work
			if sad < bestSAD {
				bestSAD, bestDX, bestDY = sad, dx, dy
			}
		}
	}
	return bestDX, bestDY, ops
}

// OwnerOfValue implements rms.ValueOwner: output value i is a decoded
// pixel, owned by the task that encoded its macroblock.
func (b *Benchmark) OwnerOfValue(i, nValues, threads int) int {
	if nValues != numFrames*frameW*frameH || threads <= 0 {
		return 0
	}
	blocksX := frameW / blockSize
	blocksPerFrame := blocksX * (frameH / blockSize)
	totalBlocks := numFrames * blocksPerFrame
	frame := i / (frameW * frameH)
	pix := i % (frameW * frameH)
	x, y := pix%frameW, pix/frameW
	bi := (y/blockSize)*blocksX + x/blockSize
	mb := frame*blocksPerFrame + bi
	return mb * threads / totalBlocks
}

// forwardDCT computes dst = D * src * D^T.
func (b *Benchmark) forwardDCT(src, dst *[blockSize][blockSize]float64) {
	var tmp [blockSize][blockSize]float64
	for k := 0; k < blockSize; k++ {
		for x := 0; x < blockSize; x++ {
			s := 0.0
			for n := 0; n < blockSize; n++ {
				s += b.dct[k][n] * src[n][x]
			}
			tmp[k][x] = s
		}
	}
	for k := 0; k < blockSize; k++ {
		for l := 0; l < blockSize; l++ {
			s := 0.0
			for n := 0; n < blockSize; n++ {
				s += tmp[k][n] * b.dct[l][n]
			}
			dst[k][l] = s
		}
	}
}

// inverseDCT computes dst = D^T * src * D.
func (b *Benchmark) inverseDCT(src, dst *[blockSize][blockSize]float64) {
	var tmp [blockSize][blockSize]float64
	for y := 0; y < blockSize; y++ {
		for l := 0; l < blockSize; l++ {
			s := 0.0
			for k := 0; k < blockSize; k++ {
				s += b.dct[k][y] * src[k][l]
			}
			tmp[y][l] = s
		}
	}
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			s := 0.0
			for l := 0; l < blockSize; l++ {
				s += tmp[y][l] * b.dct[l][x]
			}
			dst[y][x] = s
		}
	}
}

// Quality implements rms.Benchmark: mean SSIM of the decoded frames
// against the hyper-accurate (near-lossless) decode.
func (b *Benchmark) Quality(run, ref rms.Result) (float64, error) {
	frameLen := frameW * frameH
	if len(run.Output) != len(ref.Output) || len(ref.Output) != numFrames*frameLen {
		return 0, fmt.Errorf("x264: malformed outputs")
	}
	total := 0.0
	for f := 0; f < numFrames; f++ {
		s, err := quality.SSIM(run.Output[f*frameLen:(f+1)*frameLen],
			ref.Output[f*frameLen:(f+1)*frameLen], frameW, frameH)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total / numFrames, nil
}

// Trace implements rms.Benchmark: frame encoding streams macroblock
// pixels with high spatial locality.
func (b *Benchmark) Trace() sim.TraceSpec {
	return sim.TraceSpec{
		Kind: sim.Streaming, WorkingSetBytes: 2 << 20, StrideBytes: 8,
		MemFrac: 0.33, HotFrac: 0.976, HotBytes: 16 * 1024, Seed: 0x264,
	}
}

var _ rms.Benchmark = (*Benchmark)(nil)
