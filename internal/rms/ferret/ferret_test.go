package ferret

import (
	"math"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/mathx"
	"repro/internal/rms"
	"repro/internal/rms/rmstest"
)

func newBench(t *testing.T) *Benchmark {
	t.Helper()
	b, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConformance(t *testing.T) {
	rmstest.Conformance(t, newBench(t))
}

func TestSearchFindsSameClass(t *testing.T) {
	// At full resolution most returned images should share the query's
	// latent class — the search is semantically meaningful.
	b := newBench(t)
	res, err := b.Run(b.HyperInput(), 8, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	for q := range b.db.Queries {
		for k := 0; k < TopN; k++ {
			id := int(res.Output[q*TopN+k])
			if id < 0 {
				continue
			}
			total++
			if b.db.Class[id] == b.db.QueryClass[q] {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(total); frac < 0.6 {
		t.Errorf("only %.0f%% of results share the query class", frac*100)
	}
}

func TestRegionsMonotone(t *testing.T) {
	b := newBench(t)
	prev := 0
	for _, in := range b.Sweep() {
		r := b.regions(in)
		if r <= prev {
			t.Fatalf("region count not increasing at input %g", in)
		}
		prev = r
	}
	if b.regions(b.DefaultInput()) != 4 {
		t.Errorf("default regions = %d, want 4", b.regions(b.DefaultInput()))
	}
	if b.regions(b.HyperInput()) != b.db.RegionsFull {
		t.Error("hyper input should reach full resolution")
	}
}

func TestDropShardsLowerRecall(t *testing.T) {
	b := newBench(t)
	ref, err := rms.Reference(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := b.Run(b.DefaultInput(), 64, fault.Plan{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := b.Run(b.DefaultInput(), 64, fault.DropQuarter(), 1)
	if err != nil {
		t.Fatal(err)
	}
	qFull, _ := b.Quality(full, ref)
	qDrop, _ := b.Quality(dropped, ref)
	if qDrop >= qFull {
		t.Errorf("dropping shards did not lower recall: %.3f vs %.3f", qDrop, qFull)
	}
	// Losing a quarter of the database loses at most ~a quarter of the
	// common images plus ranking noise, not everything.
	if qDrop < 0.4*qFull {
		t.Errorf("Drop 1/4 collapsed recall: %.3f vs %.3f", qDrop, qFull)
	}
}

func TestRankedListsDeterministic(t *testing.T) {
	b := newBench(t)
	r1, _ := b.Run(1.0, 16, fault.Plan{}, 9)
	r2, _ := b.Run(1.0, 16, fault.Plan{}, 10) // seed must not matter: search is deterministic
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatal("search results depend on the seed")
		}
	}
}

func TestInvertRejected(t *testing.T) {
	b := newBench(t)
	if _, err := b.Run(1, 8, fault.Plan{Mode: fault.Invert, Num: 1, Den: 4}, 1); err == nil {
		t.Error("Invert mode accepted")
	}
}

func TestTable3Classification(t *testing.T) {
	b := newBench(t)
	if b.DependencePS() != rms.Complex || b.DependenceQ() != rms.Complex {
		t.Error("ferret should be complex/complex per Table 3")
	}
}

// TestRankingMatchesFullSort checks the streaming top-TopN selection
// against sorting every candidate, as Run once did: score descending,
// then id ascending, offered in shuffled id order.
func TestRankingMatchesFullSort(t *testing.T) {
	type cand struct {
		id    int
		score float64
	}
	rng := mathx.NewRNG(26)
	check := func(name string, cands []cand) {
		t.Helper()
		var r ranking
		for _, c := range cands {
			r.offer(c.id, c.score)
		}
		sorted := append([]cand(nil), cands...)
		sort.Slice(sorted, func(a, c int) bool {
			if sorted[a].score != sorted[c].score {
				return sorted[a].score > sorted[c].score
			}
			return sorted[a].id < sorted[c].id
		})
		want := min(len(sorted), TopN)
		if r.n != want {
			t.Fatalf("%s: kept %d candidates, want %d", name, r.n, want)
		}
		for k := 0; k < want; k++ {
			if r.id[k] != sorted[k].id || math.Float64bits(r.score[k]) != math.Float64bits(sorted[k].score) {
				t.Fatalf("%s: rank %d is (%d, %g), want (%d, %g)", name, k, r.id[k], r.score[k], sorted[k].id, sorted[k].score)
			}
		}
	}
	draw := func(n int, score func() float64) []cand {
		cands := make([]cand, n)
		for i, id := range rng.Perm(n) {
			cands[i] = cand{id: id, score: score()}
		}
		return cands
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(256)
		// Few distinct values, so most ranks are decided by the id.
		check("duplicates", draw(n, func() float64 { return -float64(rng.Intn(6)) }))
		check("maxfloat", draw(n, func() float64 {
			switch rng.Intn(4) {
			case 0:
				return math.MaxFloat64 // what CorruptValue makes of NaN and Inf
			case 1:
				return math.Copysign(0, -1) // ties +0
			case 2:
				return 0
			}
			return -rng.Float64()
		}))
	}
	for n := 0; n <= TopN; n++ {
		check("short", draw(n, func() float64 { return -float64(rng.Intn(3)) }))
	}
}
