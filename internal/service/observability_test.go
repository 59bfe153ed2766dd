package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
