package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/rms"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the enclosing span; -1 for a root
	op         int           // index of the op the span belongs to; -1 outside ops
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced ops run.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return len(r.spans) - 1
}

// end closes span id and returns its duration; it is a no-op for -1.
func (r *recorder) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return now - r.spans[id].start
}

// add records a span whose interval was measured elsewhere, such as the
// queue and run times the daemon reports for a job.
func (r *recorder) add(name string, parent, op int, start, end time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: op})
}

// now is the recorder's clock.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// startOf returns when span id started.
func (r *recorder) startOf(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].start
}

// snapshot returns a copy of every span; spans still open have an end
// before their start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may run in
// parallel, so the covered part is the union of their intervals, not
// their sum. Parent indices refer to positions in spans; open spans
// get 0 and cover nothing.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.end >= s.start {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := time.Duration(0), s.start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeChromeTrace writes spans in the Chrome trace-event format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open. Each span goes
// to the first track where it either nests inside the open span or
// starts after it has ended, so parallel spans get tracks of their own.
// Open spans are left out.
func writeChromeTrace(w io.Writer, spans []span) error {
	var order []int
	for i, s := range spans {
		if s.end >= s.start {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(spans[a].start, spans[b].start); c != 0 {
			return c
		}
		return cmp.Compare(spans[b].end, spans[a].end)
	})
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var tracks [][]time.Duration // per track, the end times of its open spans
	events := make([]event, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		tid := -1
		for t, open := range tracks {
			for len(open) > 0 && open[len(open)-1] <= s.start {
				open = open[:len(open)-1]
			}
			tracks[t] = open
			if len(open) == 0 || open[len(open)-1] >= s.end {
				tid = t
				break
			}
		}
		if tid < 0 {
			tid = len(tracks)
			tracks = append(tracks, nil)
		}
		tracks[tid] = append(tracks[tid], s.end)
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// timedKernel is an rms.Benchmark whose Run and Quality calls are
// recorded as rms.<name>.run and quality.<name>.score spans under one
// parent span. Every call passes through unchanged, so a front measured
// through it equals the unwrapped one.
type timedKernel struct {
	rms.Benchmark
	rec    *recorder
	parent int
	op     int

	mu  sync.Mutex
	ops float64 // sum of Result.Ops over the successful Run calls
}

func (k *timedKernel) Run(input float64, threads int, plan fault.Plan, seed int64) (rms.Result, error) {
	id := k.rec.begin("rms."+k.Name()+".run", k.parent, k.op)
	res, err := k.Benchmark.Run(input, threads, plan, seed)
	k.rec.end(id)
	if err == nil {
		k.mu.Lock()
		k.ops += res.Ops
		k.mu.Unlock()
	}
	return res, err
}

func (k *timedKernel) Quality(run, ref rms.Result) (float64, error) {
	id := k.rec.begin("quality."+k.Name()+".score", k.parent, k.op)
	defer k.rec.end(id)
	return k.Benchmark.Quality(run, ref)
}
