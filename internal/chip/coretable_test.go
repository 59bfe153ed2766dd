package chip

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// tableVoltages are the supplies the CoreTable tests cover: the
// chip's VddNTV, the STV nominal (the baseline's table) and one supply
// of the Vdd sweep in between.
func tableVoltages(ch *Chip) []float64 {
	return []float64{ch.VddNTV(), ch.Cfg.Tech.VddNomSTV, ch.VddNTV() + 0.04}
}

// TestCoreTableMatchesPerCoreMethods pins every CoreTable entry to the
// per-core method that defines it, bit for bit, and the table's
// accessors to the Chip methods they mirror.
func TestCoreTableMatchesPerCoreMethods(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	ch := testChip(t, 2014)
	zs := []float64{ch.zSafe, ch.Cfg.Tech.PerrQuantile(1e-8), ch.Cfg.Tech.PerrQuantile(1e-2)}
	got, want := make([]float64, len(zs)), make([]float64, len(zs))
	for _, vdd := range tableVoltages(ch) {
		tab := ch.CoreTable(vdd)
		if tab.Vdd != vdd || len(tab.Timing) != len(ch.Cores) {
			t.Fatalf("vdd %.3f: table at %v with %d rows", vdd, tab.Vdd, len(tab.Timing))
		}
		for i := range ch.Cores {
			if tab.Timing[i] != ch.timing(i, vdd) {
				t.Fatalf("vdd %.3f core %d: Timing %+v, want %+v", vdd, i, tab.Timing[i], ch.timing(i, vdd))
			}
			if !same(tab.SafeFreq[i], ch.CoreSafeFreq(i, vdd)) {
				t.Fatalf("vdd %.3f core %d: SafeFreq %v, want %v", vdd, i, tab.SafeFreq[i], ch.CoreSafeFreq(i, vdd))
			}
			if !same(tab.Leakage[i], ch.CoreStaticPower(i, vdd)) {
				t.Fatalf("vdd %.3f core %d: Leakage %v, want %v", vdd, i, tab.Leakage[i], ch.CoreStaticPower(i, vdd))
			}
			if !same(tab.Fmax(i), ch.CoreFmax(i, vdd)) {
				t.Fatalf("vdd %.3f core %d: Fmax %v, want %v", vdd, i, tab.Fmax(i), ch.CoreFmax(i, vdd))
			}
			if f := tab.SafeFreq[i]; !same(tab.Power(i, f), ch.CorePower(i, vdd, f)) {
				t.Fatalf("vdd %.3f core %d: Power %v, want %v", vdd, i, tab.Power(i, f), ch.CorePower(i, vdd, f))
			}
			tab.FreqsAt(i, zs, got)
			ch.CoreFreqsAt(i, vdd, zs, want)
			for g := range zs {
				if !same(got[g], want[g]) {
					t.Fatalf("vdd %.3f core %d: FreqsAt[%d] %v, want %v", vdd, i, g, got[g], want[g])
				}
			}
		}
		for c := 0; c < ch.Cfg.Clusters; c++ {
			if got, want := tab.SlowestCore(c), ch.ClusterSlowestCore(c, vdd); got != want {
				t.Fatalf("vdd %.3f cluster %d: SlowestCore %d, want %d", vdd, c, got, want)
			}
		}
	}
	if n := ch.tables.Len(); n != coreTablesPerChip {
		t.Errorf("after %d supplies the memo holds %d tables, want %d", len(tableVoltages(ch)), n, coreTablesPerChip)
	}
}

// rankFromScratch is SelectCores as it was before the CoreTable: both
// efficiency rankings recomputed from the per-core methods on every
// call. It is the oracle the memoized orders must match.
func rankFromScratch(ch *Chip, n int, vdd float64, policy SelectPolicy) []int {
	if n > len(ch.Cores) {
		n = len(ch.Cores)
	}
	ids := make([]int, len(ch.Cores))
	for i := range ids {
		ids[i] = i
	}
	switch policy {
	case SelectFastest:
		safe := make([]float64, len(ch.Cores))
		for i := range safe {
			safe[i] = ch.CoreSafeFreq(i, vdd)
		}
		sort.Slice(ids, func(a, b int) bool { return safe[ids[a]] > safe[ids[b]] })
	case SelectEfficient:
		eff := make([]float64, len(ch.Cores))
		for i := range eff {
			f := ch.CoreSafeFreq(i, vdd)
			p := ch.CorePower(i, vdd, f)
			if p > 0 {
				eff[i] = f / p
			}
		}
		sort.Slice(ids, func(a, b int) bool { return eff[ids[a]] > eff[ids[b]] })
	case SelectSequential:
		// keep layout order
	}
	return ids[:n]
}

// TestSelectCoresMatchesFromScratchRanking: every policy's selection,
// at every covered supply and a full and a partial count, is the
// ranking recomputed from scratch.
func TestSelectCoresMatchesFromScratchRanking(t *testing.T) {
	for _, seed := range []int64{1, 9, 2014} {
		ch := testChip(t, seed)
		for _, vdd := range tableVoltages(ch) {
			for _, policy := range []SelectPolicy{SelectEfficient, SelectFastest, SelectSequential} {
				for _, n := range []int{len(ch.Cores), 64} {
					got, want := ch.SelectCores(n, vdd, policy), rankFromScratch(ch, n, vdd, policy)
					if len(got) != len(want) {
						t.Fatalf("seed %d vdd %.3f %s n=%d: %d cores, want %d", seed, vdd, policy, n, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("seed %d vdd %.3f %s n=%d: position %d is core %d, want %d", seed, vdd, policy, n, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// TestSelectCoresReturnsCallersCopy: a caller that scribbles over a
// selection leaves the memoized order, and the next selection, intact.
func TestSelectCoresReturnsCallersCopy(t *testing.T) {
	ch := testChip(t, 12)
	vdd := ch.VddNTV()
	for _, policy := range []SelectPolicy{SelectEfficient, SelectFastest} {
		first := ch.SelectCores(len(ch.Cores), vdd, policy)
		want := append([]int(nil), first...)
		for k := range first {
			first[k] = 0
		}
		again := ch.SelectCores(len(ch.Cores), vdd, policy)
		for k := range want {
			if again[k] != want[k] {
				t.Fatalf("%s: position %d is core %d after a caller's write, want %d", policy, k, again[k], want[k])
			}
		}
	}
}

// TestCoreTableBuiltOnceUnderContention: eight goroutines asking for
// one new supply, and then its efficient order, at once share a single
// build and a single ranking.
func TestCoreTableBuiltOnceUnderContention(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	misses := telemetry.GetCounter("cache.chip.CoreTable.misses")
	ch := testChip(t, 13)
	vdd := ch.VddNTV() + 0.08
	before := misses.Value()
	const callers = 8
	tabs := make([]*CoreTable, callers)
	orders := make([][]int, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tabs[g] = ch.CoreTable(vdd)
			orders[g] = tabs[g].Order(SelectEfficient)
		}()
	}
	close(start)
	wg.Wait()
	if got := misses.Value() - before; got != 1 {
		t.Errorf("%d concurrent callers built the table %d times, want 1", callers, got)
	}
	for g := range tabs {
		if tabs[g] != tabs[0] || &orders[g][0] != &orders[0][0] {
			t.Fatalf("caller %d got a different table or order than caller 0", g)
		}
	}
}
