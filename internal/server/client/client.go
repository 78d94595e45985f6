// Package client is the typed Go client of the sparseadaptd HTTP API: it
// submits jobs, polls status, streams Server-Sent Events and decodes the
// wire types of package sched. The `sparseadapt submit` subcommand and
// the daemon's end-to-end tests are built on it, so the client exercises
// exactly the surface external consumers would.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sched"
)

// Client talks to one sparseadaptd instance.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil uses a client with a 30s overall timeout
	// for unary calls (streams always use a timeout-free clone, since an
	// SSE response legitimately outlives any fixed deadline).
	HTTP *http.Client
	// Retry governs automatic retry of transiently rejected submissions.
	// The zero value never retries (single-shot, the historical behavior).
	Retry RetryPolicy
	// StallTimeout aborts an event stream when no bytes arrive for this
	// long. The server emits a keepalive comment every 15s by default, so
	// anything comfortably above that (say 45s+) distinguishes a wedged
	// proxy or half-open TCP connection from a merely quiet job. Zero
	// disables the watchdog (the historical behavior).
	StallTimeout time.Duration
}

// ErrStreamStalled is returned by Stream when the stall watchdog fired:
// the connection stopped delivering bytes (not even keepalives) for
// longer than StallTimeout. Wait treats it like any stream failure and
// falls back to polling.
var ErrStreamStalled = errors.New("client: event stream stalled")

// RetryPolicy makes Submit retry transient rejections — 429 (rate limit,
// queue full) and 503 (circuit breaker open, journal hiccup) — honoring
// the server's Retry-After hint when present and falling back to capped
// exponential backoff when not.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying entirely.
	Max int
	// BaseWait seeds the exponential backoff used when the server sends no
	// Retry-After (default 500ms). MaxWait caps every wait, including
	// server-suggested ones, so a pathological hint cannot stall the client
	// (default 15s).
	BaseWait time.Duration
	MaxWait  time.Duration
}

// wait computes the pre-retry sleep for the given zero-based attempt,
// preferring the server's hint within the cap.
func (p RetryPolicy) wait(attempt int, hint time.Duration) time.Duration {
	base, max := p.BaseWait, p.MaxWait
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	if max <= 0 {
		max = 15 * time.Second
	}
	w := base << attempt
	if hint > 0 {
		w = hint
	}
	if w > max || w <= 0 {
		w = max
	}
	return w
}

// transient reports whether err is a server rejection worth retrying: the
// shed statuses (429, 503) that signal pressure, not a broken request.
func transient(err error) (*APIError, bool) {
	var ae *APIError
	if !errors.As(err, &ae) {
		return nil, false
	}
	switch ae.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return ae, true
	}
	return nil, false
}

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// APIError is a non-2xx response, carrying the decoded server error body
// and the Retry-After hint of 429s.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do performs one JSON round trip, decoding into out when non-nil.
// hdr entries (may be nil) are set on the request verbatim.
func (c *Client) do(ctx context.Context, method, path string, body []byte, hdr map[string]string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil {
		apiErr.Message = body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil {
			apiErr.RetryAfter = time.Duration(sec) * time.Second
		}
	}
	return apiErr
}

// Submit posts a job and returns its accepted status (state "queued").
// Under a non-zero RetryPolicy, transient rejections (429/503) are retried
// with the server's Retry-After hint; the last rejection is returned when
// the budget runs out. Submission is safe to retry: a shed request was
// never accepted (the server journals acceptance before responding 202).
func (c *Client) Submit(ctx context.Context, req sched.JobRequest) (sched.JobStatus, error) {
	return c.SubmitWithRequestID(ctx, req, "")
}

// SubmitWithRequestID is Submit with an explicit X-Request-ID, so a
// caller (or a coordinator proxying on a client's behalf) can correlate
// the job across hops. An empty id lets the server mint one; the
// effective id comes back in the returned status.
func (c *Client) SubmitWithRequestID(ctx context.Context, req sched.JobRequest, requestID string) (sched.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return sched.JobStatus{}, err
	}
	var hdr map[string]string
	if requestID != "" {
		hdr = map[string]string{"X-Request-ID": requestID}
	}
	var st sched.JobStatus
	for attempt := 0; ; attempt++ {
		err = c.do(ctx, http.MethodPost, "/v1/jobs", body, hdr, &st)
		if err == nil || attempt >= c.Retry.Max {
			return st, err
		}
		ae, ok := transient(err)
		if !ok {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, err
		case <-time.After(c.Retry.wait(attempt, ae.RetryAfter)):
		}
	}
}

// Get fetches a job's current status.
func (c *Client) Get(ctx context.Context, id string) (sched.JobStatus, error) {
	var st sched.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, &st)
	return st, err
}

// List fetches all retained jobs in submission order.
func (c *Client) List(ctx context.Context) ([]sched.JobStatus, error) {
	var out []sched.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, nil, &out)
	return out, err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (sched.JobStatus, error) {
	var st sched.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, &st)
	return st, err
}

// Datasets fetches the server's dataset inventory.
func (c *Client) Datasets(ctx context.Context) ([]matrix.DatasetEntry, error) {
	var out []matrix.DatasetEntry
	err := c.do(ctx, http.MethodGet, "/v1/datasets", nil, nil, &out)
	return out, err
}

// Version fetches the server's build identity.
func (c *Client) Version(ctx context.Context) (string, error) {
	var out struct {
		Version string `json:"version"`
	}
	err := c.do(ctx, http.MethodGet, "/version", nil, nil, &out)
	return out.Version, err
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Stream subscribes to a job's event stream and calls fn for every event,
// from the beginning of the job's history, until the stream closes (the
// job reached a terminal state), fn returns an error, or ctx is canceled.
func (c *Client) Stream(ctx context.Context, id string, fn func(sched.Event) error) error {
	return c.StreamFrom(ctx, id, 0, fn)
}

// StreamFrom is Stream resuming at sequence number from: events with
// Seq < from are skipped server-side via the SSE Last-Event-ID header,
// so a reconnecting consumer replays only what it missed. from <= 0
// streams the full history.
func (c *Client) StreamFrom(ctx context.Context, id string, from int, fn func(sched.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if from > 0 {
		// The server resumes after the given id, so ask for from-1.
		req.Header.Set("Last-Event-ID", strconv.Itoa(from-1))
	}
	// Clone the unary client minus its overall timeout: an event stream is
	// expected to stay open for the lifetime of the job.
	hc := *c.http()
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	body := io.Reader(resp.Body)
	var stall *stallWatch
	if c.StallTimeout > 0 {
		stall = newStallWatch(resp.Body, c.StallTimeout)
		defer stall.close()
		body = stall
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case line == "" && data.Len() > 0:
			var ev sched.Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return fmt.Errorf("decoding event: %w", err)
			}
			data.Reset()
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	if stall != nil && stall.stalled() {
		return fmt.Errorf("%w (no bytes for %v)", ErrStreamStalled, c.StallTimeout)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// stallWatch wraps an SSE response body with a dead-connection detector:
// a timer armed before every read closes the underlying body if the read
// does not deliver within the timeout, which unblocks the scanner with a
// read error the caller translates to ErrStreamStalled. Keepalive
// comments count as liveness — they are bytes like any other.
type stallWatch struct {
	rc      io.ReadCloser
	timeout time.Duration
	timer   *time.Timer
	tripped atomic.Bool
	once    sync.Once
}

func newStallWatch(rc io.ReadCloser, timeout time.Duration) *stallWatch {
	w := &stallWatch{rc: rc, timeout: timeout}
	w.timer = time.AfterFunc(timeout, func() {
		w.tripped.Store(true)
		w.rc.Close() //nolint:errcheck // unblocking a wedged read
	})
	return w
}

func (w *stallWatch) Read(p []byte) (int, error) {
	n, err := w.rc.Read(p)
	// Re-arm for the next read. If the watchdog already fired, rc is
	// closed and err reflects it; re-arming is harmless.
	w.timer.Reset(w.timeout)
	return n, err
}

func (w *stallWatch) stalled() bool { return w.tripped.Load() }

func (w *stallWatch) close() {
	w.once.Do(func() { w.timer.Stop() })
}

// Wait follows the job's event stream to completion and returns the
// terminal status. It degrades to polling when streaming fails (proxies
// that buffer SSE, for instance).
func (c *Client) Wait(ctx context.Context, id string) (sched.JobStatus, error) {
	var final *sched.JobStatus
	err := c.Stream(ctx, id, func(ev sched.Event) error {
		if ev.Status != nil && ev.Status.Terminal() {
			final = ev.Status
		}
		return nil
	})
	if final != nil {
		return *final, nil
	}
	if err != nil && ctx.Err() != nil {
		return sched.JobStatus{}, err
	}
	// Stream closed without a terminal event (or failed): poll.
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return sched.JobStatus{}, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
