package chip

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/tech"
)

func testChip(t *testing.T, seed int64) *Chip {
	t.Helper()
	ch, err := New(DefaultConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumCores() != 288 {
		t.Errorf("core count = %d, want 288", cfg.NumCores())
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.Clusters = 35 }, // not a perfect square
		func(c *Config) { c.CoresPer = -1 },
		func(c *Config) { c.CoreMemBits = 0 },
		func(c *Config) { c.PowerBudget = 0 },
		func(c *Config) { c.Tech.FNomNTV = 0 },
		func(c *Config) { c.Vth.SigmaMu = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestChipStructure(t *testing.T) {
	ch := testChip(t, 1)
	if len(ch.Cores) != 288 {
		t.Fatalf("got %d cores", len(ch.Cores))
	}
	if len(ch.Blocks) != 288+36 {
		t.Fatalf("got %d memory blocks, want 324", len(ch.Blocks))
	}
	for i, co := range ch.Cores {
		if co.ID != i || co.Cluster != i/8 {
			t.Fatalf("core %d mislabeled: %+v", i, co)
		}
		if co.Pos.X < 0 || co.Pos.X > 1 || co.Pos.Y < 0 || co.Pos.Y > 1 {
			t.Fatalf("core %d off-die at %+v", i, co.Pos)
		}
	}
}

func TestChipDeterminism(t *testing.T) {
	a, b := testChip(t, 42), testChip(t, 42)
	for i := range a.Cores {
		if a.Cores[i].VthDev != b.Cores[i].VthDev {
			t.Fatal("chips with equal seeds differ")
		}
	}
	c := testChip(t, 43)
	same := true
	for i := range a.Cores {
		if a.Cores[i].VthDev != c.Cores[i].VthDev {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical chips")
	}
}

// Figure 5a: per-cluster VddMIN spans roughly 0.46-0.58 V and the
// chip-wide VddNTV is their maximum.
func TestFig5aVddMINBand(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, ch := range f.Population(2014, 10) {
		vmins := ch.ClusterVddMINs()
		all = append(all, vmins...)
		max := 0.0
		for _, v := range vmins {
			if v > max {
				max = v
			}
		}
		if ch.VddNTV() != max {
			t.Fatalf("VddNTV %.4f != max cluster VddMIN %.4f", ch.VddNTV(), max)
		}
	}
	lo, hi := mathx.MinMax(all)
	if lo < 0.42 || lo > 0.50 {
		t.Errorf("low end of cluster VddMIN = %.3f, want ~0.46", lo)
	}
	if hi < 0.53 || hi > 0.62 {
		t.Errorf("high end of cluster VddMIN = %.3f, want ~0.58", hi)
	}
}

// Figure 5b: at VddNTV most slowest-in-cluster cores cannot reach the
// 1 GHz fNOM error-free, and their safe frequencies spread widely.
func TestFig5bSlowestCoreSpread(t *testing.T) {
	ch := testChip(t, 2014)
	vdd := ch.VddNTV()
	var safe []float64
	cannotReachNom := 0
	for c := 0; c < ch.Cfg.Clusters; c++ {
		s := ch.ClusterSlowestCore(c, vdd)
		f := ch.CoreFreqAtPerr(s, vdd, 1e-12)
		safe = append(safe, f)
		if f < ch.Cfg.Tech.FNomNTV {
			cannotReachNom++
		}
	}
	if cannotReachNom < ch.Cfg.Clusters*3/4 {
		t.Errorf("only %d/36 slowest cores below fNOM; paper says the majority cannot reach 1 GHz", cannotReachNom)
	}
	lo, hi := mathx.MinMax(safe)
	if lo < 0.08 || lo > 0.40 {
		t.Errorf("slowest safe f low end = %.3f GHz, want ~0.14-0.3", lo)
	}
	if hi < 0.45 || hi > 0.90 {
		t.Errorf("slowest safe f high end = %.3f GHz, want ~0.6-0.75", hi)
	}
	if hi/lo < 1.8 {
		t.Errorf("spread %.2fx too narrow for 15%% Vth variation", hi/lo)
	}
}

func TestCoreFreqOrdering(t *testing.T) {
	ch := testChip(t, 7)
	vdd := ch.VddNTV()
	for i := range ch.Cores {
		fmax := ch.CoreFmax(i, vdd)
		safe := ch.CoreSafeFreq(i, vdd)
		spec := ch.CoreFreqAtPerr(i, vdd, 1e-8)
		if !(safe < fmax) {
			t.Fatalf("core %d: safe %.3f !< fmax %.3f", i, safe, fmax)
		}
		if !(safe <= spec) {
			t.Fatalf("core %d: safe %.3f > speculative %.3f", i, safe, spec)
		}
	}
}

func TestCorePerrConsistency(t *testing.T) {
	ch := testChip(t, 8)
	vdd := ch.VddNTV()
	for _, i := range []int{0, 17, 144, 287} {
		f := ch.CoreFreqAtPerr(i, vdd, 1e-10)
		got := ch.CorePerr(i, vdd, f)
		if math.Abs(math.Log10(got)+10) > 0.2 {
			t.Errorf("core %d: Perr at f(1e-10) = %g", i, got)
		}
	}
}

func TestSelectCoresPolicies(t *testing.T) {
	ch := testChip(t, 9)
	vdd := ch.VddNTV()
	n := 64
	fast := ch.SelectCores(n, vdd, SelectFastest)
	eff := ch.SelectCores(n, vdd, SelectEfficient)
	seq := ch.SelectCores(n, vdd, SelectSequential)
	if len(fast) != n || len(eff) != n || len(seq) != n {
		t.Fatal("wrong selection sizes")
	}
	// Fastest selection must be ordered by decreasing safe f.
	for i := 1; i < n; i++ {
		if ch.CoreSafeFreq(fast[i], vdd) > ch.CoreSafeFreq(fast[i-1], vdd)+1e-12 {
			t.Fatal("fastest selection out of order")
		}
	}
	// Sequential is layout order.
	for i := 0; i < n; i++ {
		if seq[i] != i {
			t.Fatal("sequential selection not in layout order")
		}
	}
	// The fastest set's frequency floor is at least the sequential set's.
	if ch.SetFreq(fast, vdd, tech.ErrorFreePerr) < ch.SetFreq(seq, vdd, tech.ErrorFreePerr) {
		t.Error("fastest policy produced a slower set than sequential")
	}
	// No duplicates in any selection.
	for _, sel := range [][]int{fast, eff, seq} {
		seen := map[int]bool{}
		for _, id := range sel {
			if seen[id] {
				t.Fatal("duplicate core selected")
			}
			seen[id] = true
		}
	}
	// Oversized requests clamp to the chip.
	if got := ch.SelectCores(1000, vdd, SelectFastest); len(got) != 288 {
		t.Errorf("oversized selection returned %d cores", len(got))
	}
}

func TestSetFreqIsMinimum(t *testing.T) {
	ch := testChip(t, 10)
	vdd := ch.VddNTV()
	cores := []int{3, 50, 200}
	f := ch.SetFreq(cores, vdd, tech.ErrorFreePerr)
	for _, i := range cores {
		if ch.CoreSafeFreq(i, vdd) < f-1e-12 {
			t.Fatal("SetFreq above a member's safe frequency")
		}
	}
	if ch.SetFreq(nil, vdd, tech.ErrorFreePerr) != 0 {
		t.Error("empty set should yield 0")
	}
}

func TestMoreCoresNeverFaster(t *testing.T) {
	// Growing an engaged set can only hold or lower the common f —
	// the effect behind the paper's degrading MIPS/W at high N.
	ch := testChip(t, 11)
	vdd := ch.VddNTV()
	prev := math.Inf(1)
	for n := 8; n <= 288; n += 40 {
		sel := ch.SelectCores(n, vdd, SelectFastest)
		f := ch.SetFreq(sel, vdd, tech.ErrorFreePerr)
		if f > prev+1e-12 {
			t.Fatalf("set f increased when adding cores at n=%d", n)
		}
		prev = f
	}
}

func TestSelectPolicyString(t *testing.T) {
	if SelectEfficient.String() != "efficient" || SelectFastest.String() != "fastest" ||
		SelectSequential.String() != "sequential" {
		t.Error("policy names wrong")
	}
	if SelectPolicy(99).String() == "" {
		t.Error("unknown policy must still render")
	}
}

func TestClusterCores(t *testing.T) {
	ch := testChip(t, 12)
	lo, hi := ch.ClusterCores(5)
	if lo != 40 || hi != 48 {
		t.Errorf("cluster 5 spans [%d,%d)", lo, hi)
	}
}

func TestPopulationDistinct(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chips := f.Population(1, 5)
	for i := 1; i < len(chips); i++ {
		if chips[i].VddNTV() == chips[0].VddNTV() &&
			chips[i].Cores[0].VthDev == chips[0].Cores[0].VthDev {
			t.Fatal("population chips look identical")
		}
	}
}

// TestCoreModelMatchesTechFormulas pins the chip's hoisted per-core
// model to the per-call tech.Params formulas, bit for bit, on sampled
// chips and on a chip returned by Load (whose constants the persist
// path derives): fmax, safe and speculative frequencies (one target at
// a time and several from one timing), and leakage, at VddNTV and above.
func TestCoreModelMatchesTechFormulas(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	perrs := []float64{tech.ErrorFreePerr, 1e-12, 1e-8, 1e-4, 1e-2, 1}
	check := func(name string, ch *Chip) {
		tp := ch.Cfg.Tech
		zs := make([]float64, len(perrs))
		for g, perr := range perrs {
			zs[g] = tp.PerrQuantile(perr)
		}
		row := make([]float64, len(perrs))
		for _, vdd := range []float64{ch.VddNTV(), ch.VddNTV() + 0.1, tp.VddNomSTV} {
			for i, co := range ch.Cores {
				vth, leff := co.Vth(tp), 1+co.LeffDev
				if got, want := ch.CoreFmax(i, vdd), tp.Freq(vdd, vth)/leff; !same(got, want) {
					t.Fatalf("%s core %d vdd %.3f: CoreFmax %v, want %v", name, i, vdd, got, want)
				}
				if got, want := ch.CoreSafeFreq(i, vdd), tp.SafeFreq(vdd, vth)/leff; !same(got, want) {
					t.Fatalf("%s core %d vdd %.3f: CoreSafeFreq %v, want %v", name, i, vdd, got, want)
				}
				vthLeak := tp.VthNom * (1 + leakVthDamp*co.VthDev)
				if got, want := ch.CoreStaticPower(i, vdd), tp.StaticPower(vdd, vthLeak)*math.Exp(-leakLeffCoeff*co.LeffDev); !same(got, want) {
					t.Fatalf("%s core %d vdd %.3f: CoreStaticPower %v, want %v", name, i, vdd, got, want)
				}
				ch.CoreFreqsAt(i, vdd, zs, row)
				for g, perr := range perrs {
					want := tp.FreqAtPerr(vdd, vth, perr) / leff
					if got := ch.CoreFreqAtPerr(i, vdd, perr); !same(got, want) {
						t.Fatalf("%s core %d vdd %.3f perr %g: CoreFreqAtPerr %v, want %v", name, i, vdd, perr, got, want)
					}
					if !same(row[g], want) {
						t.Fatalf("%s core %d vdd %.3f perr %g: CoreFreqsAt %v, want %v", name, i, vdd, perr, row[g], want)
					}
				}
			}
		}
	}
	for _, seed := range []int64{3, 2014} {
		ch := testChip(t, seed)
		check("sampled", ch)
		var buf bytes.Buffer
		if err := ch.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check("loaded", loaded)
	}
}
