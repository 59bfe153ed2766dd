// Command accordiond is the long-running Accordion simulation service:
// an HTTP/JSON daemon that serves Monte-Carlo population, Pareto-scan,
// and fault-attribution queries concurrently from one warm process, so
// repeated queries share the memoized model caches (Cholesky factors,
// reference runs, representative chips, measured fronts) instead of
// paying cold-start for every question.
//
// Usage:
//
//	accordiond [-addr HOST:PORT] [-queue N] [-workers N] [-j N]
//	           [-retain N] [-drain-timeout DUR]
//
// Endpoints (see internal/service for the wire schema):
//
//	POST /run              submit a request and wait for its response
//	POST /jobs             submit without waiting (202 + job status)
//	GET  /jobs/<id>        job status, timings, the job's run document
//	GET  /jobs/<id>/result a completed job's response bytes
//	GET  /healthz          liveness and drain state (ok or draining)
//	GET  /telemetryz       telemetry snapshot (JSON)
//
// Backpressure: the job queue is bounded (-queue). When it is full,
// submissions are answered 429 with a constant Retry-After: 1 instead
// of queueing into unbounded latency. Identical in-flight or retained
// requests coalesce onto one job and cost no slot. Responses are
// deterministic: the same request body always yields byte-identical
// response bytes, whatever the concurrency.
//
// On SIGINT/SIGTERM the daemon drains: new work is refused (503), the
// workers finish every queued and running job within -drain-timeout,
// and only then does the process exit.
//
// Bad flags exit 2; a failed drain or listener exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// options are the daemon's validated command-line settings.
type options struct {
	addr         string
	queue        int
	workers      int
	poolWidth    int
	retain       int
	drainTimeout time.Duration
}

// parseFlags parses and validates the daemon's arguments. Any error
// means a usage mistake, which main answers with exit status 2.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("accordiond", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "localhost:8344", "listen address for the HTTP service")
	fs.IntVar(&o.queue, "queue", 16, "bounded job-queue depth; overflow is answered 429")
	fs.IntVar(&o.workers, "workers", 0, "job worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&o.poolWidth, "j", 0, "worker-pool width for model sweeps inside a job (0 = GOMAXPROCS)")
	fs.IntVar(&o.retain, "retain", 64, "completed jobs kept addressable for /jobs/<id> and coalescing (negative = none)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 60*time.Second, "graceful-shutdown deadline for in-flight jobs")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.queue < 1:
		return o, fmt.Errorf("-queue must be at least 1, got %d", o.queue)
	case o.workers < 0:
		return o, fmt.Errorf("-workers must be non-negative (0 = GOMAXPROCS), got %d", o.workers)
	case o.poolWidth < 0:
		return o, fmt.Errorf("-j must be non-negative (0 = GOMAXPROCS), got %d", o.poolWidth)
	case o.drainTimeout <= 0:
		return o, fmt.Errorf("-drain-timeout must be positive, got %s", o.drainTimeout)
	}
	return o, nil
}

func main() {
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "accordiond: "+format+"\n", args...)
		os.Exit(code)
	}
	opts, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fail(2, "%v", err)
	}
	parallel.SetWorkers(opts.poolWidth)

	// A service wants its ops surface live from the first request:
	// telemetry is always on, and /telemetryz serves it. No request
	// runs under a traced context, so jobs record no trace events and
	// feed no convergence series.
	telemetry.SetEnabled(true)

	srv := service.New(service.Config{
		QueueDepth: opts.queue,
		Workers:    opts.workers,
		Retain:     opts.retain,
		Now:        time.Now,
	})
	mux := srv.Mux()
	mux.Handle("GET /telemetryz", telemetry.Handler())

	// The service core spawns no goroutines; the daemon owns them all.
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	for i := 0; i < srv.Workers(); i++ {
		go srv.Worker(workerCtx)
	}

	httpSrv := &http.Server{Addr: opts.addr, Handler: mux}
	listenErr := make(chan error, 1)
	go func() { listenErr <- httpSrv.ListenAndServe() }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "accordiond: serving on http://%s (queue %d, %d workers, retain %d)\n",
		opts.addr, opts.queue, srv.Workers(), opts.retain)

	select {
	case err := <-listenErr:
		fail(1, "%v", err)
	case <-sigCtx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "accordiond: draining (%d in flight, deadline %s)\n", srv.Inflight(), opts.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	code := 0
	// Drain the job queue first — new submissions now get 503 — then
	// close the HTTP side so in-flight handlers finish writing.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "accordiond: drain: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "accordiond: http shutdown: %v\n", err)
		code = 1
	}
	if err := <-listenErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "accordiond: listener: %v\n", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "accordiond: drained, exiting")
	os.Exit(code)
}
