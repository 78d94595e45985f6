package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparseadapt/internal/sched"
)

// daemon is a sparseadaptd child process serving on a kernel-chosen port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	stderr bytes.Buffer // reported when the daemon fails to start
}

// startDaemon launches sparseadaptd with default flags except a job record
// limit above the jobs the workload sends, so no result is evicted before
// it is collected, and waits until /readyz answers.
func startDaemon(ctx context.Context, bin string, maxJobs int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-jobs", strconv.Itoa(maxJobs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	cmd.Stderr = &d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sparseadaptd listening on "); ok {
				addr <- rest
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // draining only
	}()
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, fmt.Errorf("sparseadaptd exited before listening: %s", d.stderr.String())
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("sparseadaptd did not start listening")
	}
	procs := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("sparseadaptd not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its peak resident set in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
	}
	d.client.CloseIdleConnections()
	return rssMB(d.cmd.ProcessState.SysUsage())
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // an exited process is fine
	<-d.exited
}

// submit posts one job and returns its ID and the HTTP status.
func (d *daemon) submit(ctx context.Context, body []byte) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	id, err := leadingID(resp.Body)
	return id, resp.StatusCode, err
}

// leadingID reads the "id" member of a job-status or error body. The
// daemon writes id first, and the 202 echoes the whole upload after it, so
// the rest is discarded unparsed to keep the generator cheap.
func leadingID(r io.Reader) (string, error) {
	dec := json.NewDecoder(r)
	if _, err := dec.Token(); err != nil { // {
		return "", err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return "", err
		}
		if key == "id" {
			var id string
			if err := dec.Decode(&id); err != nil {
				return "", err
			}
			_, err := io.Copy(io.Discard, r)
			return id, err
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return "", err
		}
	}
	return "", nil
}

func (d *daemon) status(ctx context.Context, id string) (sched.JobStatus, error) {
	var st sched.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET job %s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// await polls the jobs until each is terminal and returns their statuses
// in the order given.
func (d *daemon) await(ctx context.Context, ids []string) ([]sched.JobStatus, error) {
	out := make([]sched.JobStatus, len(ids))
	pending := make([]int, 0, len(ids))
	for i, id := range ids {
		if id != "" {
			pending = append(pending, i)
		}
	}
	for len(pending) > 0 {
		var next []int
		for _, i := range pending {
			st, err := d.status(ctx, ids[i])
			if err != nil {
				return nil, err
			}
			if !st.Terminal() {
				next = append(next, i)
				continue
			}
			out[i] = st
		}
		pending = next
		if len(pending) > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return out, nil
}

// scrape reads the daemon's Prometheus metrics as name → value, labels
// included in the name.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// runJobs submits each request and waits for all of them, returning the
// statuses in request order. It is the closed, unhurried path set-up uses.
func (d *daemon) runJobs(ctx context.Context, bodies [][]byte) ([]sched.JobStatus, error) {
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		id, code, err := d.submit(ctx, b)
		if err != nil {
			return nil, err
		}
		if code != http.StatusAccepted {
			return nil, fmt.Errorf("set-up job refused: HTTP %d", code)
		}
		ids[i] = id
	}
	sts, err := d.await(ctx, ids)
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		if st.State != sched.StateDone {
			return nil, fmt.Errorf("set-up job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	return sts, nil
}

// sendRecord is what the load generator saw of one job.
type sendRecord struct {
	due    time.Time // when the schedule said to send it
	sent   time.Time
	submit time.Duration // POST round trip
	id     string
	code   int
	err    error
}

// openLoop sends bodies[i] at start + i/rate regardless of how earlier
// requests fared, through at most nproc connections. A job's latency is
// later measured from its due time, so a stalled generator or daemon
// charges the wait to every job it delays.
func openLoop(ctx context.Context, d *daemon, bodies [][]byte, rate float64) []sendRecord {
	out := make([]sendRecord, len(bodies))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range bodies {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			jobID, code, err := d.submit(ctx, bodies[i])
			out[i] = sendRecord{due: due.Round(0), sent: sent, submit: time.Since(sent), id: jobID, code: code, err: err}
		}(i, due)
	}
	wg.Wait()
	return out
}
