package xh264

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rms"
	"repro/internal/rms/rmstest"
)

func TestConformance(t *testing.T) {
	rmstest.Conformance(t, New())
}

func TestDCTRoundTrip(t *testing.T) {
	b := New()
	var src, coef, back [blockSize][blockSize]float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			src[y][x] = math.Sin(float64(3*y+x)) * 50
		}
	}
	b.forwardDCT(&src, &coef)
	b.inverseDCT(&coef, &back)
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			if math.Abs(back[y][x]-src[y][x]) > 1e-9 {
				t.Fatalf("DCT round trip failed at (%d,%d): %g vs %g", x, y, back[y][x], src[y][x])
			}
		}
	}
	// Parseval: energy preserved by the orthonormal transform.
	var eSrc, eCoef float64
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			eSrc += src[y][x] * src[y][x]
			eCoef += coef[y][x] * coef[y][x]
		}
	}
	if math.Abs(eSrc-eCoef) > 1e-6*eSrc {
		t.Errorf("transform not orthonormal: %g vs %g", eSrc, eCoef)
	}
}

func TestHigherPrecisionHigherFidelity(t *testing.T) {
	b := New()
	fidelity := func(precision float64) float64 {
		res, err := b.Run(precision, 8, fault.Plan{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Compare the decode against the pristine source frames.
		orig := make([]float64, 0, len(res.Output))
		for _, fr := range b.frames {
			orig = append(orig, fr.V...)
		}
		s := 0.0
		for f := 0; f < numFrames; f++ {
			v, err := quality.SSIM(res.Output[f*frameW*frameH:(f+1)*frameW*frameH],
				orig[f*frameW*frameH:(f+1)*frameW*frameH], frameW, frameH)
			if err != nil {
				t.Fatal(err)
			}
			s += v
		}
		return s / numFrames
	}
	low, high := fidelity(14), fidelity(40)
	if high <= low {
		t.Errorf("precision 40 (SSIM %.3f) no better than 14 (%.3f)", high, low)
	}
	if high < 0.95 {
		t.Errorf("near-lossless encode only reaches SSIM %.3f", high)
	}
}

func TestWorkGrowsWithPrecision(t *testing.T) {
	b := New()
	lo, err := b.Run(14, 8, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := b.Run(40, 8, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Ops <= lo.Ops {
		t.Error("higher precision must code more coefficients")
	}
}

func TestDropConcealsBlocks(t *testing.T) {
	b := New()
	full, err := b.Run(26, 64, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(26, 64, fault.DropQuarter(), 1)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := frameW * frameH
	// First frame: dropped slices conceal to mid-gray.
	gray := 0
	for _, v := range res.Output[:frameLen] {
		if v == 128 {
			gray++
		}
	}
	if gray < frameLen/4*8/10 {
		t.Errorf("first frame: only %d of ~%d concealed pixels", gray, frameLen/4)
	}
	// Later frames: concealment copies the previous decoded frame, so
	// dropped pixels equal the co-located pixel one frame earlier.
	f := 3
	match, differ := 0, 0
	for i := 0; i < frameLen; i++ {
		cur := res.Output[f*frameLen+i]
		prev := res.Output[(f-1)*frameLen+i]
		if cur == prev && cur != full.Output[f*frameLen+i] {
			match++
		}
		if cur != full.Output[f*frameLen+i] {
			differ++
		}
	}
	if differ == 0 {
		t.Error("drop changed nothing in frame 3")
	}
	if match == 0 {
		t.Error("no evidence of previous-frame concealment in frame 3")
	}
}

func TestPrecisionBoundsRejected(t *testing.T) {
	b := New()
	if _, err := b.Run(52, 8, fault.Plan{}, 1); err == nil {
		t.Error("precision implying QP <= 0 accepted")
	}
	if _, err := b.Run(60, 8, fault.Plan{}, 1); err == nil {
		t.Error("precision beyond QP range accepted")
	}
}

func TestInvertRejected(t *testing.T) {
	b := New()
	if _, err := b.Run(26, 8, fault.Plan{Mode: fault.Invert, Num: 1, Den: 4}, 1); err == nil {
		t.Error("Invert mode accepted")
	}
}

func TestTable3Classification(t *testing.T) {
	b := New()
	// x264 is the one benchmark whose PS and Q dependencies differ.
	if b.DependencePS() != rms.Complex || b.DependenceQ() != rms.Linear {
		t.Error("x264 should be complex/linear per Table 3")
	}
}

func TestOwnerOfValue(t *testing.T) {
	b := New()
	n := numFrames * frameW * frameH
	threads := 16
	blocksX := frameW / blockSize
	blocksPerFrame := blocksX * (frameH / blockSize)
	totalBlocks := numFrames * blocksPerFrame
	check := func(i int) {
		frame := i / (frameW * frameH)
		pix := i % (frameW * frameH)
		x, y := pix%frameW, pix/frameW
		mb := frame*blocksPerFrame + (y/blockSize)*blocksX + x/blockSize
		if got, want := b.OwnerOfValue(i, n, threads), mb*threads/totalBlocks; got != want {
			t.Errorf("OwnerOfValue(%d) = %d, want %d", i, got, want)
		}
	}
	for _, i := range []int{0, blockSize, frameW * blockSize, frameW * frameH, n - 1} {
		check(i)
	}
	if got := b.OwnerOfValue(0, 7, threads); got != 0 {
		t.Errorf("mismatched value count owner = %d, want 0", got)
	}
}

// fullSearch is the reference motion search: the full SAD of every
// in-range candidate, with a sign branch, keeping the first strict
// minimum in dy-major, dx-minor order.
func fullSearch(src, prev []float64, bx, by int) (bestDX, bestDY int, ops float64) {
	bestSAD := math.Inf(1)
	for dy := -searchRange; dy <= searchRange; dy++ {
		for dx := -searchRange; dx <= searchRange; dx++ {
			px, py := bx+dx, by+dy
			if px < 0 || py < 0 || px+blockSize > frameW || py+blockSize > frameH {
				continue
			}
			sad := 0.0
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					d := src[(by+y)*frameW+bx+x] - prev[(py+y)*frameW+px+x]
					if d < 0 {
						d = -d
					}
					sad += d
				}
			}
			ops += blockSize * blockSize
			if sad < bestSAD {
				bestSAD, bestDX, bestDY = sad, dx, dy
			}
		}
	}
	return bestDX, bestDY, ops
}

// TestMotionSearchMatchesFullSearch checks the early-exit search
// against the full one at every block position, on frames built to
// tie, to match exactly, and to put the best match last in the scan.
func TestMotionSearchMatchesFullSearch(t *testing.T) {
	const n = frameW * frameH
	rng := mathx.NewRNG(264)
	noise := func() []float64 {
		f := make([]float64, n)
		for i := range f {
			f[i] = math.Round(rng.Float64() * 255)
		}
		return f
	}
	// shifted returns the frame whose pixel (x+dx, y+dy) is src's (x, y),
	// with noise where src has no pixel.
	shifted := func(src []float64, dx, dy int) []float64 {
		f := noise()
		for y := 0; y < frameH; y++ {
			for x := 0; x < frameW; x++ {
				if x+dx >= 0 && x+dx < frameW && y+dy >= 0 && y+dy < frameH {
					f[(y+dy)*frameW+x+dx] = src[y*frameW+x]
				}
			}
		}
		return f
	}
	flat := func(v float64) []float64 {
		f := make([]float64, n)
		for i := range f {
			f[i] = v
		}
		return f
	}
	periodic := make([]float64, n) // period 2: candidates tie in fours
	signedZeros := make([]float64, n)
	for i := range periodic {
		x, y := i%frameW, i/frameW
		periodic[i] = float64(50 * ((x + y) % 2))
		if (x+y)%3 == 0 {
			signedZeros[i] = math.Copysign(0, -1)
		}
	}
	ramp := make([]float64, n) // SAD falls toward the match at (+4, +4)
	for i := range ramp {
		ramp[i] = float64(i%frameW + 3*(i/frameW))
	}
	src := noise()
	cases := []struct {
		name      string
		src, prev []float64
	}{
		{"flat tie", flat(10), flat(40)},
		{"periodic ties", periodic, noise()},
		{"periodic both", periodic, periodic},
		{"zero SAD early", src, shifted(src, -3, -2)},
		{"zero SAD at the centre", src, src},
		{"best match last", src, shifted(src, searchRange, searchRange)},
		{"ramp to the last candidate", ramp, shifted(ramp, searchRange, searchRange)},
		{"signed zeros", signedZeros, flat(0)},
		{"noise", noise(), noise()},
	}
	for _, c := range cases {
		for by := 0; by < frameH; by += blockSize {
			for bx := 0; bx < frameW; bx += blockSize {
				dx, dy, ops := motionSearch(c.src, c.prev, bx, by)
				wdx, wdy, wops := fullSearch(c.src, c.prev, bx, by)
				if dx != wdx || dy != wdy || ops != wops {
					t.Fatalf("%s, block (%d,%d): got (%d,%d) ops %g, want (%d,%d) ops %g",
						c.name, bx, by, dx, dy, ops, wdx, wdy, wops)
				}
			}
		}
	}
}
