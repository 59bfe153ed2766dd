package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// TestRetryAfterDerivedHTTP pins the backoff a busy server advertises
// over HTTP: the 429 overflow answer and the 202 poll of a still-queued
// job both carry the constant one-second Retry-After, however slow the
// jobs before them ran.
func TestRetryAfterDerivedHTTP(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	// No Worker loops: the first job occupies the single queue slot.
	srv := New(Config{QueueDepth: 1, Workers: 1})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	telemetry.GetHistogram("service.run_ns").Observe(int64(10 * time.Second))

	resp, body := postJSON(t, ts.URL+"/jobs", reqBody(301))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit answer is not valid JSON: %v", err)
	}
	resp, _ = getJSON(t, ts.URL+"/jobs/"+st.JobID+"/result")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued result poll: status %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("queued poll Retry-After = %q, want %q", got, "1")
	}

	resp, _ = postJSON(t, ts.URL+"/jobs", reqBody(302))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("overflow Retry-After = %q, want %q", got, "1")
	}
	telemetry.Reset()
}

// TestScopedManifestSum is the acceptance pin for per-job attribution:
// two concurrent jobs with different chip seeds produce run documents
// whose per-job counter.cache.* hit+miss counts sum exactly to the
// global delta for the fully ctx-threaded caches. Run with -race: the
// scopes are written from concurrent workers.
func TestScopedManifestSum(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	experiments.ResetCaches()
	srv, _ := startServer(t, Config{QueueDepth: 4, Workers: 2})

	names := []string{"experiments.RepresentativeChip", "experiments.MeasuredFronts"}
	prev := map[string]int64{}
	for _, name := range names {
		for _, kind := range []string{".hits", ".misses"} {
			prev["cache."+name+kind] = telemetry.GetCounter("cache." + name + kind).Value()
		}
	}
	// table2 and fig5b both want the representative chip, so each job
	// records one miss (its own seed's construction) and one hit.
	req := func(chipSeed int64) Request {
		return Request{Experiments: []string{"table2", "fig5b"}, Chips: 2, Seed: 41, ChipSeed: chipSeed}
	}
	j1, _, err := srv.Admit(req(7001))
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := srv.Admit(req(7002))
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	<-j2.Done()

	counterDelta := func(name string) int64 {
		return telemetry.GetCounter(name).Value() - prev[name]
	}
	for _, name := range names {
		var jobSum int64
		for _, j := range []*Job{j1, j2} {
			st := srv.statusOf(j)
			if st.State != StateDone {
				t.Fatalf("job %s state = %s (%s), want done", j.ID(), st.State, st.Error)
			}
			m := st.Manifest.Metrics
			jobSum += int64(m["counter.cache."+name+".hits"] + m["counter.cache."+name+".misses"])
		}
		global := counterDelta("cache."+name+".hits") + counterDelta("cache."+name+".misses")
		if jobSum != global {
			t.Errorf("%s: per-job documents sum to %d, global delta is %d", name, jobSum, global)
		}
	}
	// The chip cache specifically: distinct seeds → one miss each, and
	// the second experiment in each job hits its own seed's entry.
	if got := counterDelta("cache.experiments.RepresentativeChip.misses"); got != 2 {
		t.Errorf("global chip misses = %d, want 2 (one per distinct seed)", got)
	}
	if got := counterDelta("cache.experiments.RepresentativeChip.hits"); got == 0 {
		t.Error("global chip hits = 0, want each job's second experiment to hit")
	}
	telemetry.Reset()
}

// TestScopedManifestAfterReset pins the edge satellite: a cache reset
// racing a job must not corrupt that job's own attribution — the run
// document still reports exactly the hits+misses the job's scope saw.
func TestScopedManifestAfterReset(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	experiments.ResetCaches()
	srv, _ := startServer(t, Config{QueueDepth: 4, Workers: 2})

	j, _, err := srv.Admit(Request{Experiments: []string{"table2"}, Chips: 2, Seed: 43, ChipSeed: 7003})
	if err != nil {
		t.Fatal(err)
	}
	// ResetCaches blocks until the in-flight run finishes (the cache
	// gate), so this exercises reset-vs-document ordering, then the
	// next identical job re-misses with a fresh scope.
	<-j.Done()
	experiments.ResetCaches()
	j2, _, err := srv.Admit(Request{Experiments: []string{"table2"}, Chips: 2, Seed: 44, ChipSeed: 7003})
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	st := srv.statusOf(j2)
	if st.State != StateDone {
		t.Fatalf("job after reset: state %s (%s)", st.State, st.Error)
	}
	if chip, ok := st.Manifest.Metrics["counter.cache.experiments.RepresentativeChip.misses"]; !ok || chip != 1 {
		t.Errorf("post-reset job's chip misses = %v, %v; want exactly its own re-miss", chip, ok)
	}
	telemetry.Reset()
}

// TestAccessLogEvents checks the NDJSON access log: a /run round trip
// emits a service.request event carrying the job id, coalesced flag,
// status and byte count, and the job's lifecycle emits the
// queued→running→done transitions.
func TestAccessLogEvents(t *testing.T) {
	defer telemetry.SetEnabled(true)()
	telemetry.Reset()
	_, ts := startServer(t, Config{QueueDepth: 4, Workers: 1})

	resp, _ := postJSON(t, ts.URL+"/run", reqBody(21))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Job-Id")

	attrs := func(e telemetry.Event) map[string]any {
		m := map[string]any{}
		for _, a := range e.Attrs {
			m[a.Key] = a.Value()
		}
		return m
	}
	var sawRequest bool
	var states []string
	for _, e := range telemetry.Events() {
		m := attrs(e)
		switch e.Kind {
		case "service.request":
			if m["job"] == id && m["path"] == "/run" {
				sawRequest = true
				if m["status"] != int64(200) {
					t.Errorf("access-log status = %v, want 200", m["status"])
				}
				if m["coalesced"] != int64(0) {
					t.Errorf("access-log coalesced = %v, want 0", m["coalesced"])
				}
				if b, ok := m["bytes"].(int64); !ok || b <= 0 {
					t.Errorf("access-log bytes = %v, want > 0", m["bytes"])
				}
			}
		case "job.state":
			if m["job"] == id {
				states = append(states, m["state"].(string))
			}
		}
	}
	if !sawRequest {
		t.Error("no service.request event for the /run round trip")
	}
	if want := []string{StateQueued, StateRunning, StateDone}; len(states) != 3 ||
		states[0] != want[0] || states[1] != want[1] || states[2] != want[2] {
		t.Errorf("job.state sequence = %v, want %v", states, want)
	}
	telemetry.Reset()
}

// TestHealthHeadersAndReadyCheck pins the ops-surface headers on
// /healthz and its readiness answer: 200 "ok" while serving, then 503
// "draining" with the constant Retry-After once Shutdown begins.
func TestHealthHeadersAndReadyCheck(t *testing.T) {
	srv := New(Config{QueueDepth: 1, Workers: 1})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz: status %d (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-cache" {
		t.Errorf("/healthz Cache-Control = %q, want no-cache", got)
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
		t.Errorf("/healthz Content-Type = %q, want application/json", got)
	}
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" {
		t.Errorf("healthy status = %q, want ok", doc.Status)
	}

	// No Worker loops run, so Shutdown returns the cancelled context's
	// error at once; only the draining state it sets matters here.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Shutdown(ctx)
	resp, body = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: status %d, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "draining" {
		t.Errorf("draining status = %q, want draining", doc.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("draining Retry-After = %q, want %q", got, "1")
	}
}
