package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// errOutput marks an op whose output failed a check, as opposed to an
// op that returned an error; either counts as failed, and the first
// also makes the run incorrect.
var errOutput = errors.New("wrong output")

// opOut is what one op produced.
type opOut struct {
	key   string   // ops with equal keys must produce identical output bytes
	sum   [32]byte // sha256 of the output bytes
	items int      // units of work done: regenerations, chips, requests or kernel runs
}

// instance is a set-up workload, ready to run ops.
type instance interface {
	// op runs operation i; its inputs are a function of the seed and i
	// alone. With a non-nil tracer it records spans under the op's root.
	op(ctx context.Context, i int, tr *tracer) (opOut, error)
	// close releases the instance and returns the peak resident set, in
	// KiB, of the process that did the work, or 0 for this process.
	close() (peakKB int64, err error)
}

// tracer places the spans of one traced op under its root span. A nil
// tracer records nothing.
type tracer struct {
	rec  *recorder
	root int
	op   int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	return t.rec.begin(name, t.root, t.op)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.rec.end(id)
	}
}

// window is the outcome of one timed window.
type window struct {
	untracedMs, tracedMs []float64 // latencies of the ops that succeeded
	items                int
	elapsed              time.Duration // window start to the last op's end
	attempted, failed    int
	wrong                bool     // some output failed a check
	first                [32]byte // output digest of op 0
	errs                 []string // the first few failures, for stderr

	sums map[string][32]byte
}

// check counts one op and compares its output with earlier ops that had
// the same inputs.
func (w *window) check(i int, out opOut, err error) bool {
	w.attempted++
	if err == nil {
		if prev, ok := w.sums[out.key]; ok && prev != out.sum {
			err = fmt.Errorf("%w: op %d output differs from an earlier op with the same inputs", errOutput, i)
		}
	}
	if err != nil {
		w.failed++
		w.wrong = w.wrong || errors.Is(err, errOutput)
		if len(w.errs) < 5 {
			w.errs = append(w.errs, fmt.Sprintf("op %d: %v", i, err))
		}
		return false
	}
	w.sums[out.key] = out.sum
	if i == 0 {
		w.first = out.sum
	}
	return true
}

// runWindow runs wl's ops until d has passed and wl.minOps have started,
// then replays op 0, whose output must come out byte-identical. With a
// recorder, ops alternate between untraced and traced blocks of
// wl.block ops, and at least one block of each runs whatever d is.
func runWindow(ctx context.Context, inst instance, wl workload, d time.Duration, rec *recorder) *window {
	w := &window{sums: map[string][32]byte{}}
	workers := wl.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minOps := max(wl.minOps, 1)
	if rec != nil {
		minOps = max(minOps, 2*wl.block)
	}
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (i >= minOps && time.Since(start) >= d) || ctx.Err() != nil {
					return
				}
				var tr *tracer
				if rec != nil && (i/wl.block)%2 == 1 {
					tr = &tracer{rec: rec, root: rec.begin("op."+wl.name, -1, i), op: i}
				}
				t := time.Now()
				out, err := inst.op(ctx, i, tr)
				lat := time.Since(t)
				if tr != nil {
					rec.end(tr.root)
				}
				end := time.Since(start)
				mu.Lock()
				if w.check(i, out, err) {
					w.items += out.items
					w.elapsed = max(w.elapsed, end)
					if tr != nil {
						w.tracedMs = append(w.tracedMs, ms(lat))
					} else {
						w.untracedMs = append(w.untracedMs, ms(lat))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out, err := inst.op(ctx, 0, nil)
	w.check(0, out, err)
	return w
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics, or NaN for no samples. It is kept here rather than
// taken from the program so a change to the program cannot change how
// the program is measured.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// derive maps (seed, id) to an input seed with SplitMix64's finalizer.
// The benchmark keeps its own derivation so a change to the program's
// RNG cannot change the inputs it is measured on. Results are positive.
func derive(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) + 1
}
