package parallel

import (
	"sync"

	"repro/internal/telemetry"
)

// Cache is a concurrency-safe memoization map with singleflight
// semantics: for each key the compute function runs exactly once, even
// under concurrent Do calls for that key — latecomers block until the
// first caller's result is ready and then share it. Failed computations
// (error or panic) are not cached, so a later Do retries.
//
// The zero value is ready to use. Values are shared between callers:
// cache only immutable results, or have callers copy before mutating.
// Do is the one entry point and takes no context: a computation that
// needs one, as a trace parent, closes over it in fn.
//
// A cache constructed with a Name reports telemetry: Do hits and misses
// plus evictions (failed computations dropped, entries pushed out by
// Max, Reset discards) under cache.<Name>.{hits,misses,evictions}.
// Unnamed caches report nothing.
type Cache[K comparable, V any] struct {
	// Name, when non-empty, registers the cache's telemetry counters on
	// first use. Set it in the composite literal; it must not change
	// after the first Do.
	Name string
	// Max, when positive, bounds the number of entries: inserting one
	// more evicts the oldest inserted entry first. Waiters on an
	// evicted in-flight entry still receive its value. Set it in the
	// composite literal; zero means unbounded.
	Max int

	mu      sync.Mutex
	entries map[K]*cacheEntry[V]
	order   []K // keys of entries, oldest insertion first; kept only when Max > 0
	hits    *telemetry.Counter
	misses  *telemetry.Counter
	evicted *telemetry.Counter
}

type cacheEntry[V any] struct {
	done   chan struct{}
	val    V
	err    error
	caught *PanicError
}

// initMetrics lazily resolves the named counters; called under mu. The
// counter methods are nil-safe, so unnamed caches leave them nil and
// every bump is a no-op.
func (c *Cache[K, V]) initMetrics() {
	if c.Name == "" || c.hits != nil {
		return
	}
	c.hits = telemetry.GetCounter("cache." + c.Name + ".hits")
	c.misses = telemetry.GetCounter("cache." + c.Name + ".misses")
	c.evicted = telemetry.GetCounter("cache." + c.Name + ".evictions")
}

// Do returns the cached value for key, computing it with fn on the
// first call. Concurrent calls for the same key wait for the in-flight
// computation instead of duplicating it. If fn panics, the panic is
// re-raised (as a *PanicError) on every waiting caller and the entry is
// forgotten.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	c.initMetrics()
	if c.entries == nil {
		c.entries = make(map[K]*cacheEntry[V])
	}
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Inc()
		<-e.done
		if e.caught != nil {
			panic(e.caught)
		}
		return e.val, e.err
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	evicted := 0
	if c.Max > 0 {
		c.order = append(c.order, key)
		for len(c.order) > c.Max {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
			evicted++
		}
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evicted.Add(int64(evicted))
	}
	c.misses.Inc()

	func() {
		defer func() {
			if r := recover(); r != nil {
				if pe, ok := r.(*PanicError); ok {
					e.caught = pe
				} else {
					e.caught = &PanicError{Value: r}
				}
			}
		}()
		e.val, e.err = fn()
	}()
	if e.err != nil || e.caught != nil {
		c.mu.Lock()
		// The entry may already be gone (evicted or Reset), and key
		// may now hold a newer entry that must stay.
		dropped := c.entries[key] == e
		if dropped {
			delete(c.entries, key)
			c.forget(key)
		}
		c.mu.Unlock()
		if dropped {
			c.evicted.Inc()
		}
	}
	close(e.done)
	if e.caught != nil {
		panic(e.caught)
	}
	return e.val, e.err
}

// forget removes key from the insertion order; called under mu.
func (c *Cache[K, V]) forget(key K) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// Get returns the cached value for key without computing anything; ok
// reports whether a completed, successful entry exists.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	e, exists := c.entries[key]
	c.mu.Unlock()
	if !exists {
		return v, false
	}
	select {
	case <-e.done:
		if e.err != nil || e.caught != nil {
			return v, false
		}
		return e.val, true
	default:
		return v, false
	}
}

// Len returns the number of entries (including in-flight ones).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset empties the cache. In-flight computations complete and deliver
// to their waiters but are not retained. Discarded entries count as
// evictions in the cache's telemetry.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	n := len(c.entries)
	c.entries, c.order = nil, nil
	c.mu.Unlock()
	if n > 0 {
		c.evicted.Add(int64(n))
	}
}
