package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// daemon is a running accordiond child process and a client for it.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	client  *http.Client
	exited  chan struct{}
	waitErr error // set before exited closes
}

// startDaemon starts bin with default flags on a free local port and
// waits until it answers /healthz. The client keeps at most conns
// connections open.
func startDaemon(bin string, conns int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	// The daemon dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting accordiond: %w", err)
	}
	d := &daemon{
		cmd: cmd,
		url: "http://" + addr,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
		exited: make(chan struct{}),
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	for deadline := time.Now().Add(15 * time.Second); ; {
		if resp, err := d.client.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("accordiond exited before serving: %v", d.waitErr)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("accordiond did not answer /healthz on %s", addr)
		}
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its peak resident set in KiB.
func (d *daemon) stop() (int64, error) {
	d.client.CloseIdleConnections()
	// Signal fails only when the process has exited, which Wait reports.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	var peak int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = ru.Maxrss
	}
	if d.waitErr != nil {
		return peak, fmt.Errorf("accordiond: %w", d.waitErr)
	}
	return peak, nil
}

// runRequest is the body of a POST /run.
type runRequest struct {
	Experiments []string `json:"experiments"`
	Seed        int64    `json:"seed"`
	ChipSeed    int64    `json:"chip_seed"`
}

// run posts req to /run, checks that the response holds one non-empty
// output per requested experiment, and returns its bytes and job id.
func (d *daemon) run(ctx context.Context, req runRequest) ([]byte, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hreq)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST /run: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var doc struct {
		JobID   string `json:"job_id"`
		Results []struct {
			ID     string `json:"id"`
			Output string `json:"output"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, "", fmt.Errorf("%w: response is not JSON: %v", errOutput, err)
	}
	if doc.JobID == "" || len(doc.Results) != len(req.Experiments) {
		return nil, "", fmt.Errorf("%w: response has job %q and %d results for %d experiments", errOutput, doc.JobID, len(doc.Results), len(req.Experiments))
	}
	for j, r := range doc.Results {
		if r.ID != req.Experiments[j] || r.Output == "" {
			return nil, "", fmt.Errorf("%w: result %d is %q with %d bytes, want %q", errOutput, j, r.ID, len(r.Output), req.Experiments[j])
		}
	}
	return data, doc.JobID, nil
}

// jobTimes returns the queue and run times the daemon reports for a job.
func (d *daemon) jobTimes(ctx context.Context, job string) (queued, ran time.Duration, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/jobs/"+job, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /jobs/%s: %s", job, resp.Status)
	}
	var st struct {
		QueuedMs int64 `json:"queued_ms"`
		RunMs    int64 `json:"run_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("GET /jobs/%s: %w", job, err)
	}
	return time.Duration(st.QueuedMs) * time.Millisecond, time.Duration(st.RunMs) * time.Millisecond, nil
}

// serve is the warm daemon path: closed-loop clients, one per core,
// each waiting for its reply before sending the next request.
type serve struct {
	d    *daemon
	seed int64
	ids  []string
}

// startServe starts the daemon and sends one warm-up request, which
// fills the daemon's front and reference caches.
func startServe(ctx context.Context, e *env) (instance, error) {
	d, err := startDaemon(filepath.Join(e.dir, "accordiond"), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	w := &serve{d: d, seed: e.seed, ids: e.scale.serveIDs}
	if _, _, err := d.run(ctx, w.request(-1)); err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return w, nil
}

// request returns request i. Every fourth request repeats the one
// before it, so the daemon coalesces it or serves the retained job.
func (w *serve) request(i int) runRequest {
	if i%4 == 3 {
		i--
	}
	return runRequest{Experiments: w.ids, Seed: w.seed, ChipSeed: derive(w.seed, 500+int64(i))}
}

func (w *serve) op(ctx context.Context, i int, tr *tracer) (opOut, error) {
	req := w.request(i)
	data, job, err := w.d.run(ctx, req)
	if err != nil {
		return opOut{}, err
	}
	if tr != nil {
		// The job's queue and run times become child spans laid from
		// the op's start; what they leave uncovered is HTTP and
		// client time. A repeated request reports the times of the job
		// it joined, so both are clipped to the op.
		end := tr.rec.now()
		queued, ran, err := w.d.jobTimes(ctx, job)
		if err != nil {
			return opOut{}, err
		}
		start := tr.rec.startOf(tr.root)
		q, r := min(start+queued, end), min(start+queued+ran, end)
		tr.rec.add("service.queue", tr.root, tr.op, start, q)
		tr.rec.add("service.run", tr.root, tr.op, q, r)
	}
	return opOut{key: strconv.FormatInt(req.ChipSeed, 10), sum: sha256.Sum256(data), items: 1}, nil
}

func (w *serve) close() (int64, error) { return w.d.stop() }
