package telemetry

import (
	"context"
	"sync"
)

// Scope attributes recordings to one unit of work — the accordiond
// server opens one per job — so concurrent jobs can each report their
// own cache hits instead of reading the shared process-wide totals. A
// scoped recording always lands in the global counter first (the
// process totals stay authoritative) and then tallies into the scope,
// so for any counter the global delta over an interval equals the sum
// of the scoped tallies plus whatever unscoped call sites recorded.
//
// Scope methods are safe for concurrent use: the work a scope covers
// typically fans out across the parallel pool's goroutines. A nil
// *Scope is a valid no-op receiver everywhere, so unscoped callers
// (the CLI, tests) pay nothing.
type Scope struct {
	mu       sync.Mutex
	counters map[string]int64
}

// NewScope returns an empty scope ready to receive attributions.
func NewScope() *Scope { return &Scope{} }

// addCounter tallies n against name inside the scope.
func (sc *Scope) addCounter(name string, n int64) {
	sc.mu.Lock()
	if sc.counters == nil {
		sc.counters = make(map[string]int64)
	}
	sc.counters[name] += n
	sc.mu.Unlock()
}

// CounterValue returns the scope's tally for the named counter.
// Nil-safe.
func (sc *Scope) CounterValue(name string) int64 {
	if sc == nil {
		return 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.counters[name]
}

// Counters returns the scope's counter tallies sorted by name.
// Nil-safe.
func (sc *Scope) Counters() []CounterSnapshot {
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]CounterSnapshot, 0, len(sc.counters))
	for _, n := range sortedNames(sc.counters) {
		out = append(out, CounterSnapshot{Name: n, Value: sc.counters[n]})
	}
	return out
}

// AddScoped increments the counter globally and tallies the increment
// into sc. Both receiver and scope are nil-safe; a disabled switch
// records nowhere.
func (c *Counter) AddScoped(sc *Scope, n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
	if sc != nil {
		sc.addCounter(c.name, n)
	}
}

// IncScoped is AddScoped by one.
func (c *Counter) IncScoped(sc *Scope) { c.AddScoped(sc, 1) }

// scopeKey is the context key carrying the active scope.
type scopeKey struct{}

// NewScopeContext returns a context carrying sc, for threading the
// active job's scope through the call tree (the memo caches resolve it
// in DoCtx). A nil scope returns ctx unchanged.
func NewScopeContext(ctx context.Context, sc *Scope) context.Context {
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, sc)
}

// ScopeFrom returns the scope ctx carries, or nil. A nil scope is a
// valid no-op receiver, so callers chain without guards.
func ScopeFrom(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	sc, _ := ctx.Value(scopeKey{}).(*Scope)
	return sc
}
