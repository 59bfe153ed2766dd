package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestEnabledSwitch pins the core contract: nothing records while the
// switch is off, everything records while it is on.
func TestEnabledSwitch(t *testing.T) {
	defer SetEnabled(false)()
	c := GetCounter("test.switch.counter")
	g := GetGauge("test.switch.gauge")
	h := GetHistogram("test.switch.hist")

	c.Add(5)
	g.Set(7)
	h.Observe(11)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled metrics recorded: counter=%d gauge=%d hist=%d",
			c.Value(), g.Value(), h.Count())
	}

	SetEnabled(true)
	c.Add(5)
	g.Set(7)
	h.Observe(11)
	if c.Value() != 5 || g.Value() != 7 || h.Count() != 1 {
		t.Fatalf("enabled metrics did not record: counter=%d gauge=%d hist=%d",
			c.Value(), g.Value(), h.Count())
	}
}

// TestSetEnabledRestore checks the returned closure restores the prior
// state, nested or not.
func TestSetEnabledRestore(t *testing.T) {
	defer SetEnabled(false)()
	restore := SetEnabled(true)
	if !On() {
		t.Fatal("SetEnabled(true) did not enable")
	}
	restore()
	if On() {
		t.Fatal("restore did not disable")
	}
}

// TestCounterConcurrent hammers one counter from many goroutines and
// expects an exact total.
func TestCounterConcurrent(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.concurrent.counter")
	c.reset()
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// and checks every accumulated invariant afterwards.
func TestHistogramConcurrent(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.concurrent.hist")
	h.reset()
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i + 1))
			}
		}(w)
	}
	wg.Wait()

	s := h.snapshot()
	const n = workers * per
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if want := int64(n) * (n + 1) / 2; s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Min != 1 || s.Max != n {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, n)
	}
	var bucketTotal int64
	for i := range h.buckets {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != n {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, n)
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("quantiles not monotone: min=%d p50=%d p95=%d p99=%d max=%d",
			s.Min, s.P50, s.P95, s.P99, s.Max)
	}
}

// TestHistogramQuantilesSingleValue pins the exact case: a degenerate
// distribution must report its one value at every quantile.
func TestHistogramQuantilesSingleValue(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.quantile.single")
	h.reset()
	for i := 0; i < 100; i++ {
		h.Observe(42)
	}
	s := h.snapshot()
	if s.P50 != 42 || s.P95 != 42 || s.P99 != 42 {
		t.Fatalf("quantiles = %d/%d/%d, want 42/42/42", s.P50, s.P95, s.P99)
	}
	if s.Mean != 42 {
		t.Fatalf("mean = %g, want 42", s.Mean)
	}
}

// TestHistogramQuantileSpread checks a uniform spread lands each
// quantile within its bucket's power-of-two resolution.
func TestHistogramQuantileSpread(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.quantile.spread")
	h.reset()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	// Log-bucketed estimates: the true p50 is 500, resolvable only to
	// its bucket [256, 511]; p99 is 990, bucket [512, 1023] clamped to
	// the observed max.
	if s.P50 < 256 || s.P50 > 511 {
		t.Fatalf("p50 = %d, want within [256, 511]", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1000 {
		t.Fatalf("p99 = %d, want within [512, 1000]", s.P99)
	}
}

// TestHistogramQuantileBucketBoundary pins interpolation at the exact
// power-of-two bucket edges. 1023 and 1024 straddle a boundary: they
// land in adjacent buckets, and in-bucket interpolation would report
// 1023's bucket ceiling (1023) and 1024's ceiling (2047) — so the
// quantiles must come back clamped to the observed [1023, 1024]
// envelope, not the raw bucket geometry.
func TestHistogramQuantileBucketBoundary(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.quantile.boundary")
	h.reset()
	h.Observe(1023)
	h.Observe(1024)
	s := h.snapshot()
	if s.P50 != 1023 {
		t.Errorf("p50 = %d, want 1023 (lower boundary value)", s.P50)
	}
	if s.P99 != 1024 {
		t.Errorf("p99 = %d, want 1024 (interpolated 2047 must clamp to max)", s.P99)
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles out of order: min=%d p50=%d p95=%d p99=%d max=%d",
			s.Min, s.P50, s.P95, s.P99, s.Max)
	}
}

// TestHistogramQuantileTwoBucketSplit pins the rank walk across
// buckets for a bimodal split of exact powers of two: the median
// resolves to the lower mode's bucket, the tail quantiles to the
// upper mode clamped at the observed max, and the p50<=p95<=p99 chain
// holds exactly.
func TestHistogramQuantileTwoBucketSplit(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.quantile.twobucket")
	h.reset()
	for i := 0; i < 50; i++ {
		h.Observe(1024)
		h.Observe(2048)
	}
	s := h.snapshot()
	if s.P50 < 1024 || s.P50 > 2047 {
		t.Errorf("p50 = %d, want inside 1024's bucket [1024, 2047]", s.P50)
	}
	if s.P95 != 2048 || s.P99 != 2048 {
		t.Errorf("p95/p99 = %d/%d, want 2048/2048 (clamped to observed max)", s.P95, s.P99)
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles out of order: min=%d p50=%d p95=%d p99=%d max=%d",
			s.Min, s.P50, s.P95, s.P99, s.Max)
	}
}

// TestHistogramNegativeClamps checks negative observations clamp to
// zero instead of corrupting the bucket index.
func TestHistogramNegativeClamps(t *testing.T) {
	defer SetEnabled(true)()
	h := GetHistogram("test.negative")
	h.reset()
	h.Observe(-5)
	s := h.snapshot()
	if s.Count != 1 || s.Min != 0 || s.Sum != 0 {
		t.Fatalf("negative observation mishandled: %+v", s)
	}
}

// TestSnapshotUnderFire captures while recorders run; the race detector
// guards the memory model, and the final capture must be exact.
func TestSnapshotUnderFire(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.fire.counter")
	h := GetHistogram("test.fire.hist")
	c.reset()
	h.reset()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var capWg sync.WaitGroup
	capWg.Add(1)
	go func() {
		defer capWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := Capture()
				for _, hs := range s.Histograms {
					if hs.Count < 0 || hs.Sum < 0 {
						panic("negative snapshot")
					}
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	capWg.Wait()
	if c.Value() != workers*per || h.Count() != workers*per {
		t.Fatalf("final totals %d/%d, want %d", c.Value(), h.Count(), workers*per)
	}
}

// TestEnabledCounterNoAlloc: the enabled counter/histogram paths are
// atomic-only and must not allocate either.
func TestEnabledCounterNoAlloc(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.enabledalloc.counter")
	h := GetHistogram("test.enabledalloc.hist")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(777)
	})
	if allocs != 0 {
		t.Fatalf("enabled counter/histogram allocate %.1f objects per op, want 0", allocs)
	}
}

// TestRegistryIdentity: the registry hands out one identity per name,
// and Reset preserves it.
func TestRegistryIdentity(t *testing.T) {
	c1 := GetCounter("test.identity")
	c2 := GetCounter("test.identity")
	if c1 != c2 {
		t.Fatal("GetCounter returned two identities for one name")
	}
	defer SetEnabled(true)()
	c1.Add(3)
	Reset()
	if c1.Value() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
	if GetCounter("test.identity") != c1 {
		t.Fatal("Reset changed the counter's identity")
	}
	h := GetHistogram("test.identity.hist")
	h.Observe(9)
	Reset()
	if h.Count() != 0 {
		t.Fatal("Reset did not zero the histogram")
	}
	if h.min.Load() != math.MaxInt64 {
		t.Fatal("Reset did not restore the histogram min sentinel")
	}
}

// TestNilSafety: nil metric handles and the zero Timing are no-ops.
func TestNilSafety(t *testing.T) {
	defer SetEnabled(true)()
	var c *Counter
	var g *Gauge
	var h *Histogram
	var sr *Series
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	sr.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sr.Count() != 0 {
		t.Fatal("nil metrics returned nonzero values")
	}
	var tm Timing
	if tm.Int("k", 1).Str("s", "v").End() != 0 {
		t.Fatal("the zero Timing reported elapsed time")
	}
}

// TestSnapshotSorted: Capture returns metrics in lexical name order so
// renders are deterministic.
func TestSnapshotSorted(t *testing.T) {
	GetCounter("test.sort.b")
	GetCounter("test.sort.a")
	s := Capture()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name > s.Counters[i].Name {
			t.Fatalf("counters out of order: %q after %q",
				s.Counters[i].Name, s.Counters[i-1].Name)
		}
	}
}

// TestWriteJSONRoundTrip: the JSON render parses back into the same
// totals.
func TestWriteJSONRoundTrip(t *testing.T) {
	defer SetEnabled(true)()
	c := GetCounter("test.json.counter")
	c.reset()
	c.Add(17)
	var buf bytes.Buffer
	if err := Capture().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("JSON render does not parse: %v", err)
	}
	found := false
	for _, cs := range parsed.Counters {
		if cs.Name == "test.json.counter" {
			found = true
			if cs.Value != 17 {
				t.Fatalf("round-tripped value = %d, want 17", cs.Value)
			}
		}
	}
	if !found {
		t.Fatal("counter missing from JSON render")
	}
}

// TestWriteText: the text render mentions each section and metric name.
func TestWriteText(t *testing.T) {
	defer SetEnabled(true)()
	GetCounter("test.text.counter").Add(1)
	GetHistogram("test.text.hist").Observe(1000)
	GetSeries("test.text.series", "V").Observe(0.5)
	var buf bytes.Buffer
	if err := Capture().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Histograms count nanoseconds and render as durations.
	for _, want := range []string{"telemetry (enabled)", "test.text.counter", "test.text.hist", "max=1µs", "-- series", "test.text.series"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text render missing %q:\n%s", want, out)
		}
	}
}

// TestHandler: /telemetryz serves the Capture as JSON.
func TestHandler(t *testing.T) {
	defer SetEnabled(true)()
	GetCounter("test.handler.counter").Add(2)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetryz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var parsed Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("handler body does not parse: %v", err)
	}
	if !parsed.Enabled {
		t.Fatal("handler snapshot reports disabled")
	}
}

// TestTelemetryzHandlerDisabled: /telemetryz also serves while
// disabled, with enabled=false in the JSON document.
func TestTelemetryzHandlerDisabled(t *testing.T) {
	defer SetEnabled(false)()
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetryz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200 while disabled", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q, want application/json", ct)
	}
	if !strings.Contains(rec.Body.String(), `"enabled": false`) {
		t.Error("/telemetryz did not report enabled: false while disabled")
	}
}

// TestEndpointCacheHeaders: /telemetryz must disable caching and
// declare its content type, so a proxy never serves a stale snapshot.
func TestEndpointCacheHeaders(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/telemetryz", nil))
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("/telemetryz Cache-Control = %q, want no-cache", cc)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/telemetryz Content-Type = %q", ct)
	}
}

// TestBucketOf pins the bucket mapping at its edges.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
