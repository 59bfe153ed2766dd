package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/telemetry"
)

// Config parameterizes a Server. The zero value of every field selects
// the documented default.
type Config struct {
	// QueueDepth bounds the number of jobs waiting for a worker
	// (running jobs do not occupy a slot). When the queue is full, new
	// work is rejected with ErrQueueFull — HTTP 429 — rather than
	// queued into unbounded latency. Default 16.
	QueueDepth int
	// Workers is the number of worker goroutines the daemon runs; the
	// caller must start exactly this many Worker loops, because
	// Shutdown waits for that many exits. Default GOMAXPROCS.
	Workers int
	// Retain bounds how many completed jobs (and their response
	// bytes) stay addressable for /jobs/<id> and request coalescing
	// after they finish. Oldest-finished evicts first. 0 means the
	// default of 64; negative retains nothing, so every identical
	// request re-executes.
	Retain int
	// Now supplies timestamps for job status and latency telemetry.
	// Response bodies never depend on it. The default is the wall
	// clock; tests inject fakes.
	Now func() time.Time
}

const (
	defaultQueueDepth = 16
	defaultRetain     = 64
)

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one admitted request. All fields are guarded by the server's
// mutex; Done() exposes the completion signal.
type Job struct {
	id  string
	req Request

	done     chan struct{}
	state    string
	enqueued time.Time
	started  time.Time
	finished time.Time
	resp     []byte
	err      error
	manifest *history.Record
	// scope attributes telemetry recorded while this job executes —
	// most importantly the memo caches' hit/miss counters — to this
	// job, so its run document reports its own cache traffic rather
	// than the process-wide totals.
	scope *telemetry.Scope
}

// ID returns the job's identifier (the canonical request hash).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Admission errors.
var (
	// ErrQueueFull signals backpressure: the bounded queue has no free
	// slot. HTTP surfaces it as 429 with a Retry-After header.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining signals a shutting-down server that accepts no new
	// work. HTTP surfaces it as 503 with a Retry-After header.
	ErrDraining = errors.New("service: server is draining")
)

// Server is the accordiond core: a bounded job queue with request
// coalescing in front of the deterministic experiment drivers. It
// spawns no goroutines of its own — the daemon runs Config.Workers
// Worker loops — so the package stays out of the scheduler's way and
// inside the determinism analyzer's rules.
type Server struct {
	cfg   Config
	queue chan *Job
	// workerExit receives one token per Worker return; Shutdown drains
	// exactly cfg.Workers of them.
	workerExit chan struct{}

	mu        sync.Mutex
	jobs      map[string]*Job
	retained  []string // completed job ids, oldest-finished first
	inflightN int64    // jobs admitted but not yet terminal
	draining  bool

	requests  *telemetry.Counter
	rejected  *telemetry.Counter
	coalesced *telemetry.Counter
	inflight  *telemetry.Gauge
	latency   *telemetry.Histogram
	runtime   *telemetry.Histogram
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Retain == 0 {
		cfg.Retain = defaultRetain
	} else if cfg.Retain < 0 {
		cfg.Retain = -1
	}
	if cfg.Now == nil {
		// The wall clock feeds status and telemetry only; response
		// bytes are a pure function of the request.
		cfg.Now = time.Now
	}
	return &Server{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		workerExit: make(chan struct{}, cfg.Workers),
		jobs:       make(map[string]*Job),
		requests:   telemetry.GetCounter("service.requests"),
		rejected:   telemetry.GetCounter("service.rejected"),
		coalesced:  telemetry.GetCounter("service.coalesced"),
		inflight:   telemetry.GetGauge("service.inflight"),
		latency:    telemetry.GetHistogram("service.latency_ns"),
		runtime:    telemetry.GetHistogram("service.run_ns"),
	}
}

// Workers returns the number of Worker loops the daemon must run.
func (s *Server) Workers() int { return s.cfg.Workers }

// Admit normalizes req and either attaches it to the identical
// in-flight (or retained) job — request coalescing, counted in
// service.coalesced — or enqueues a new job. It returns ErrQueueFull
// when the bounded queue has no slot and ErrDraining once Shutdown has
// begun; validation errors come from Normalize. Admit never blocks.
func (s *Server) Admit(req Request) (*Job, error) {
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	id := req.JobID()
	s.requests.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Inc()
		return nil, ErrDraining
	}
	if j, ok := s.jobs[id]; ok {
		s.coalesced.Inc()
		return j, nil
	}
	j := &Job{
		id:       id,
		req:      req,
		done:     make(chan struct{}),
		state:    StateQueued,
		enqueued: s.cfg.Now(),
		scope:    telemetry.NewScope(),
	}
	select {
	case s.queue <- j:
	default:
		s.rejected.Inc()
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.inflightN++
	s.inflight.Set(s.inflightN)
	return j, nil
}

// Worker runs jobs until the context is cancelled or the queue is
// closed and drained by Shutdown. The daemon must run exactly
// Config.Workers of these on its own goroutines.
func (s *Server) Worker(ctx context.Context) {
	defer func() { s.workerExit <- struct{}{} }()
	for {
		select {
		case <-ctx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.run(ctx, j)
		}
	}
}

// run executes one job and records its outcome, latency, and run
// document. The job's telemetry scope rides the context so the memo
// caches attribute their hits and misses to this job; the document
// then reports the job's own cache traffic, not the process-wide
// totals.
func (s *Server) run(ctx context.Context, j *Job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Already failed by a shutdown deadline; nothing to run.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = s.cfg.Now()
	s.mu.Unlock()

	ctx = telemetry.NewScopeContext(ctx, j.scope)
	resp, results, err := Execute(ctx, j.req)
	var body []byte
	if err == nil {
		body, err = resp.Encode()
	}
	// The job's run document leaves wall_ms unset, since run_ms is in
	// the status and this package reads no clock of its own.
	rec := history.NewRecord("accordiond", "run")
	for _, r := range results {
		if r.Err == nil {
			rec.Set("runner."+r.ID+".wall_ms", float64(r.Elapsed.Milliseconds()))
		}
	}
	// The job's own cache traffic, from its scope: concurrent jobs'
	// documents each report what their own execution incurred, and the
	// per-job counts sum to the global delta.
	rec.AddTelemetry(telemetry.Snapshot{Counters: j.scope.Counters()})
	if err == nil {
		rec.AddArtifactBytes("response:"+j.id, body)
	} else {
		rec.Note = err.Error()
	}
	s.finish(j, body, err, &rec)
}

// finish moves a job to its terminal state exactly once; late arrivals
// (a worker completing a job a shutdown deadline already failed) are
// dropped.
func (s *Server) finish(j *Job, body []byte, err error, rec *history.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.finished = s.cfg.Now()
	j.resp = body
	j.err = err
	j.manifest = rec
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	s.inflightN--
	s.inflight.Set(s.inflightN)
	s.latency.Observe(j.finished.Sub(j.enqueued).Nanoseconds())
	var runNs int64
	if !j.started.IsZero() {
		runNs = j.finished.Sub(j.started).Nanoseconds()
	}
	s.runtime.Observe(runNs)
	close(j.done)
	// Retention: failed jobs are always forgotten (a retry should
	// re-execute); completed jobs stay addressable until the retention
	// window evicts them, oldest finish first.
	if err != nil || s.cfg.Retain < 0 {
		delete(s.jobs, j.id)
		return
	}
	s.retained = append(s.retained, j.id)
	for len(s.retained) > s.cfg.Retain {
		delete(s.jobs, s.retained[0])
		s.retained = s.retained[1:]
	}
}

// Lookup returns the job registered under id, if it is still queued,
// running, or retained.
func (s *Server) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Inflight returns the number of admitted, non-terminal jobs.
func (s *Server) Inflight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflightN
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new admissions fail with ErrDraining,
// the queue closes, and Shutdown blocks until every worker has
// finished its in-flight and queued jobs or ctx expires. On deadline,
// jobs that never reached a worker fail with the context's error so no
// waiter hangs, and the context error is returned. Shutdown is
// idempotent; later calls re-wait on nothing and return nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	for i := 0; i < s.cfg.Workers; i++ {
		select {
		case <-s.workerExit:
		case <-ctx.Done():
			s.failPending(fmt.Errorf("service: shutdown: %w", ctx.Err()))
			return ctx.Err()
		}
	}
	// Workers exited via their own context before emptying the queue:
	// fail whatever never ran rather than leaving waiters blocked.
	s.failPending(errors.New("service: server shut down before the job ran"))
	return nil
}

// failPending terminates every non-terminal job with err.
func (s *Server) failPending(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.state == StateDone || j.state == StateFailed {
			continue
		}
		j.state = StateFailed
		j.finished = s.cfg.Now()
		j.err = err
		s.inflightN--
		close(j.done)
		delete(s.jobs, id)
	}
	s.inflight.Set(s.inflightN)
}

// Mux returns the service's HTTP surface:
//
//	POST /run             submit and wait; the body is the Response
//	POST /jobs            submit without waiting; the body is a status
//	GET  /jobs/{id}       job status (timings, run document when done)
//	GET  /jobs/{id}/result the completed job's response bytes
//	GET  /healthz         liveness + drain state
//
// The daemon mounts /telemetryz beside these.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// maxRequestBytes bounds a request body; a Request is tiny.
const maxRequestBytes = 1 << 20

// decodeRequest reads one request body strictly: an unknown field is
// an error, not a silently ignored typo.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// admitHTTP decodes, normalizes and admits the request body, writing
// the mapped error response (400/429/503) and returning nil on failure.
func (s *Server) admitHTTP(w http.ResponseWriter, r *http.Request) *Job {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: decoding request: %w", err))
		return nil
	}
	j, err := s.Admit(req)
	var status int
	switch {
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		setRetryAfter(w)
		status = http.StatusServiceUnavailable
	case err != nil:
		status = http.StatusBadRequest
	default:
		return j
	}
	writeError(w, status, err)
	return nil
}

// handleRun is the synchronous path: admit, wait, answer with the
// deterministic response bytes.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	j := s.admitHTTP(w, r)
	if j == nil {
		return
	}
	select {
	case <-r.Context().Done():
		// Client gone; the job keeps running for coalesced waiters.
		return
	case <-j.Done():
	}
	s.writeResult(w, j)
}

// handleSubmit is the asynchronous path: admit and answer immediately
// with the job status; poll /jobs/{id} for completion.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j := s.admitHTTP(w, r)
	if j == nil {
		return
	}
	status := http.StatusAccepted
	if st := s.statusOf(j); st.State == StateDone || st.State == StateFailed {
		status = http.StatusOK
	}
	writeJSON(w, status, s.statusOf(j))
}

// JobStatus is the /jobs/{id} document. Manifest is the job's run
// document, the type `accordion -manifest` writes.
type JobStatus struct {
	Schema   int             `json:"schema"`
	JobID    string          `json:"job_id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	QueuedMs int64           `json:"queued_ms"`
	RunMs    int64           `json:"run_ms,omitempty"`
	Error    string          `json:"error,omitempty"`
	Manifest *history.Record `json:"manifest,omitempty"`
}

// statusOf snapshots a job under the lock.
func (s *Server) statusOf(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		Schema: SchemaVersion,
		JobID:  j.id,
		Kind:   j.req.Kind,
		State:  j.state,
	}
	switch j.state {
	case StateQueued:
		st.QueuedMs = s.cfg.Now().Sub(j.enqueued).Milliseconds()
	case StateRunning:
		st.QueuedMs = j.started.Sub(j.enqueued).Milliseconds()
		st.RunMs = s.cfg.Now().Sub(j.started).Milliseconds()
	default:
		if !j.started.IsZero() {
			st.QueuedMs = j.started.Sub(j.enqueued).Milliseconds()
			st.RunMs = j.finished.Sub(j.started).Milliseconds()
		} else {
			st.QueuedMs = j.finished.Sub(j.enqueued).Milliseconds()
		}
		st.Manifest = j.manifest
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown or evicted job"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown or evicted job"))
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state == StateQueued || state == StateRunning {
		setRetryAfter(w)
		writeError(w, http.StatusAccepted, errors.New("service: job still "+state))
		return
	}
	s.writeResult(w, j)
}

// writeResult answers with a terminal job's outcome: the deterministic
// response bytes, or the execution error. Like writeJSON and
// writeError it drops the body's write error: a failed write means the
// client is gone, and there is no one left to answer.
func (s *Server) writeResult(w http.ResponseWriter, j *Job) {
	s.mu.Lock()
	body, err := j.resp, j.err
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Job-Id", j.id)
	w.Write(body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-cache")
	s.mu.Lock()
	doc := struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
		Schema   int    `json:"schema"`
	}{Status: "ok", Inflight: s.inflightN, Schema: SchemaVersion}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		doc.Status = "draining"
		setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// setRetryAfter advertises the client backoff on 429, 503 and 202
// answers: a constant second, Retry-After's smallest useful value.
func setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	data, err := json.Marshal(doc)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	doc := struct {
		Error string `json:"error"`
	}{Error: err.Error()}
	data, _ := json.Marshal(doc)
	w.Write(append(data, '\n'))
}
