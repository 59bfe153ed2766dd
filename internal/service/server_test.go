package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// startServer builds a Server, runs its worker loops, and serves its
// mux from an httptest listener, tearing all of it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < srv.Workers(); i++ {
		go srv.Worker(ctx)
	}
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
		cancel()
	})
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp, data
}

// reqBody builds the small fig1a request the tests submit; the seed
// distinguishes jobs (distinct seeds never coalesce).
func reqBody(seed int64) string {
	return fmt.Sprintf(`{"kind":"experiments","experiments":["fig1a"],"chips":2,"seed":%d}`, seed)
}

// TestQueueFullBackpressure pins the satellite contract: with no
// workers pulling, a full queue answers 429 with a Retry-After header,
// while an identical request coalesces onto the queued job for free.
func TestQueueFullBackpressure(t *testing.T) {
	// No Worker loops are started: admitted jobs sit in the queue.
	srv := New(Config{QueueDepth: 1, Workers: 1})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/jobs", reqBody(101))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/jobs", reqBody(102))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("overflow Retry-After = %q, want %q", got, "1")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("overflow body = %s, want a queue-full error", body)
	}

	// The identical request coalesces onto the queued job: no queue
	// slot needed, so no 429.
	resp, _ = postJSON(t, ts.URL+"/jobs", reqBody(101))
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("coalesced submit: status %d, want 202", resp.StatusCode)
	}

	if _, _, err := srv.Admit(Request{Experiments: []string{"fig1a"}, Chips: 2, Seed: 103}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Admit on full queue = %v, want ErrQueueFull", err)
	}
}

// TestRunDeterministicBytes is the acceptance gate: two identical
// POST /run requests return byte-identical bodies. Retain is negative,
// so the second request re-executes instead of replaying a cached
// response — the bytes match because the engine is deterministic.
func TestRunDeterministicBytes(t *testing.T) {
	_, ts := startServer(t, Config{QueueDepth: 4, Workers: 2, Retain: -1})

	resp1, body1 := postJSON(t, ts.URL+"/run", reqBody(7))
	resp2, body2 := postJSON(t, ts.URL+"/run", reqBody(7))
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200 (bodies %s %s)", resp1.StatusCode, resp2.StatusCode, body1, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("identical requests returned different bodies (%d vs %d bytes)", len(body1), len(body2))
	}
	if id1, id2 := resp1.Header.Get("X-Job-Id"), resp2.Header.Get("X-Job-Id"); id1 == "" || id1 != id2 {
		t.Errorf("X-Job-Id headers differ: %q vs %q", id1, id2)
	}
	var doc Response
	if err := json.Unmarshal(body1, &doc); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if doc.Request.Seed != 7 || doc.Request.Chips != 2 {
		t.Errorf("response does not echo the normalized request: %+v", doc.Request)
	}
}

// TestJobStatusAndManifest follows the async path end to end: submit,
// wait, read status (with the run document) and the result bytes, and
// check they match the synchronous answer and the document's hash of
// them.
func TestJobStatusAndManifest(t *testing.T) {
	_, ts := startServer(t, Config{QueueDepth: 4, Workers: 1})

	resp, body := postJSON(t, ts.URL+"/run", reqBody(11))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run: status %d (body %s)", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("POST /run returned no X-Job-Id header")
	}

	resp, statusBody := getJSON(t, ts.URL+"/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(statusBody, &st); err != nil {
		t.Fatalf("status is not valid JSON: %v", err)
	}
	if st.State != StateDone || st.JobID != id || st.Kind != KindExperiments {
		t.Errorf("status = %+v, want done/%s/%s", st, id, KindExperiments)
	}
	if st.Manifest == nil {
		t.Fatal("completed job status carries no run document")
	}

	resp, resultBody := getJSON(t, ts.URL+"/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	if !bytes.Equal(resultBody, body) {
		t.Errorf("/jobs/%s/result differs from the /run body", id)
	}
	sum := sha256.Sum256(resultBody)
	var hashed bool
	for _, a := range st.Manifest.Artifacts {
		if a.Name == "response:"+id {
			hashed = a.SHA256 == hex.EncodeToString(sum[:]) && a.Bytes == int64(len(resultBody))
		}
	}
	if !hashed {
		t.Errorf("run document's response:%s artifact does not hash the result bytes: %+v", id, st.Manifest.Artifacts)
	}

	resp, _ = getJSON(t, ts.URL+"/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestGracefulShutdownDrain pins drain semantics: Shutdown finishes
// queued work, then the server refuses new jobs with ErrDraining and
// /healthz flips to 503 with a Retry-After.
func TestGracefulShutdownDrain(t *testing.T) {
	srv := New(Config{QueueDepth: 8, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < srv.Workers(); i++ {
		go srv.Worker(ctx)
	}
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	jobs := make([]*Job, 0, 3)
	for seed := int64(21); seed < 24; seed++ {
		j, _, err := srv.Admit(Request{Experiments: []string{"fig1a"}, Chips: 2, Seed: seed})
		if err != nil {
			t.Fatalf("admit seed %d: %v", seed, err)
		}
		jobs = append(jobs, j)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Errorf("job %s not terminal after drain", j.ID())
		}
		if resp, _ := getJSON(t, ts.URL+"/jobs/"+j.ID()+"/result"); resp.StatusCode != http.StatusOK {
			t.Errorf("drained job %s result: status %d, want 200", j.ID(), resp.StatusCode)
		}
	}

	if !srv.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	if _, _, err := srv.Admit(Request{Experiments: []string{"fig1a"}, Chips: 2, Seed: 99}); !errors.Is(err, ErrDraining) {
		t.Errorf("Admit while draining = %v, want ErrDraining", err)
	}
	resp, _ := postJSON(t, ts.URL+"/run", reqBody(98))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /run while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining response carries no Retry-After header")
	}
	resp, healthBody := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(healthBody), "draining") {
		t.Errorf("healthz body = %s, want draining status", healthBody)
	}
	if err := srv.Shutdown(sctx); err != nil {
		t.Errorf("second Shutdown = %v, want nil (idempotent)", err)
	}
}

// TestShutdownDeadline pins the failure path: when the drain deadline
// expires before the workers exit (here: no workers were ever
// started), queued jobs fail instead of leaving waiters blocked.
func TestShutdownDeadline(t *testing.T) {
	srv := New(Config{QueueDepth: 4, Workers: 1})
	j, _, err := srv.Admit(Request{Experiments: []string{"fig1a"}, Chips: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer scancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	select {
	case <-j.Done():
	case <-time.After(time.Second):
		t.Fatal("queued job not failed after shutdown deadline")
	}
	if _, ok := srv.Lookup(j.ID()); ok {
		t.Error("failed job still addressable; failed jobs should be forgotten")
	}
}

// TestResetCachesRace hammers concurrent service requests against
// experiments.ResetCaches under the race detector: the cache gate must
// make resets atomic with respect to running jobs. Run with -race to
// get the full value of this test.
func TestResetCachesRace(t *testing.T) {
	_, ts := startServer(t, Config{QueueDepth: 64, Workers: 4})

	const clients = 8
	const perClient = 4
	errs := make(chan error, clients)

	stop := make(chan struct{})
	resetterDone := make(chan struct{})
	go func() {
		defer close(resetterDone)
		for {
			select {
			case <-stop:
				return
			default:
				experiments.ResetCaches()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := int64(1 + (c*perClient+i)%3) // mix coalescing and fresh work
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(reqBody(seed)))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("race test timed out")
	}
	close(stop)
	<-resetterDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
