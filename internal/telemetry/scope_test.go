package telemetry

import (
	"context"
	"sync"
	"testing"
)

// TestScopedCounterAttribution pins the core scope invariant: a scoped
// bump lands in the global counter AND the scope, so the global delta
// equals the sum of the scoped tallies.
func TestScopedCounterAttribution(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.scope.counter")
	c.reset()
	a, b := NewScope(), NewScope()

	c.AddScoped(a, 3)
	c.AddScoped(b, 5)
	c.IncScoped(a)
	c.Add(10) // unscoped

	if got := c.Value(); got != 19 {
		t.Errorf("global = %d, want 19", got)
	}
	if got := a.CounterValue("test.scope.counter"); got != 4 {
		t.Errorf("scope a = %d, want 4", got)
	}
	if got := b.CounterValue("test.scope.counter"); got != 5 {
		t.Errorf("scope b = %d, want 5", got)
	}
	snaps := a.Counters()
	if len(snaps) != 1 || snaps[0].Name != "test.scope.counter" || snaps[0].Value != 4 {
		t.Errorf("a.Counters() = %+v", snaps)
	}
}

// TestScopeDisabledAndNil: with the switch off nothing records
// anywhere, and nil scopes/handles are no-ops.
func TestScopeDisabledAndNil(t *testing.T) {
	defer SetEnabled(false)()
	c := GetCounter("test.scope.disabled")
	c.reset()
	sc := NewScope()
	c.AddScoped(sc, 7)
	if c.Value() != 0 || sc.CounterValue("test.scope.disabled") != 0 {
		t.Error("disabled scoped bump recorded somewhere")
	}

	SetEnabled(true)
	c.AddScoped(nil, 2) // nil scope: global only
	if c.Value() != 2 {
		t.Errorf("nil-scope bump: global = %d, want 2", c.Value())
	}
	var nilC *Counter
	nilC.AddScoped(sc, 1)
	var nilScope *Scope
	if nilScope.CounterValue("x") != 0 || nilScope.Counters() != nil {
		t.Error("nil scope readouts are not zero")
	}

	if allocs := testing.AllocsPerRun(1000, func() { c.AddScoped(nil, 0) }); allocs != 0 {
		t.Errorf("nil-scope AddScoped allocates %v times per run", allocs)
	}
}

// TestScopeContext pins the context plumbing the memo caches rely on.
func TestScopeContext(t *testing.T) {
	sc := NewScope()
	ctx := NewScopeContext(context.Background(), sc)
	if got := ScopeFrom(ctx); got != sc {
		t.Errorf("ScopeFrom = %p, want %p", got, sc)
	}
	if got := ScopeFrom(context.Background()); got != nil {
		t.Errorf("ScopeFrom(empty ctx) = %p, want nil", got)
	}
	if got := ScopeFrom(nil); got != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("ScopeFrom(nil) = %p, want nil", got)
	}
	base := context.Background()
	if got := NewScopeContext(base, nil); got != base {
		t.Error("NewScopeContext(ctx, nil) should return ctx unchanged")
	}
}

// TestScopeConcurrentAttribution hammers one counter from many
// goroutines, each pair sharing a scope, and expects exact per-scope
// and global totals. Run with -race for the full value.
func TestScopeConcurrentAttribution(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.scope.concurrent")
	c.reset()
	const scopes, workersPer, per = 4, 4, 2500
	scs := make([]*Scope, scopes)
	var wg sync.WaitGroup
	for i := range scs {
		scs[i] = NewScope()
		for g := 0; g < workersPer; g++ {
			wg.Add(1)
			go func(sc *Scope) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					c.IncScoped(sc)
				}
			}(scs[i])
		}
	}
	wg.Wait()
	var sum int64
	for i, sc := range scs {
		v := sc.CounterValue("test.scope.concurrent")
		if v != workersPer*per {
			t.Errorf("scope %d = %d, want %d", i, v, workersPer*per)
		}
		sum += v
	}
	if got := c.Value(); got != sum {
		t.Errorf("global %d != sum of scopes %d", got, sum)
	}
}
