// Package server is the simulation-as-a-service subsystem: an HTTP/JSON
// front end that turns the one-shot simulator + controller stack into a
// long-lived queryable backend. POST /v1/jobs submits a simulation
// (static, adaptive, resilient or batch; on a dataset entry or an uploaded
// MatrixMarket body), GET /v1/jobs/{id} polls status, and
// GET /v1/jobs/{id}/events streams per-epoch progress as Server-Sent
// Events while the run executes.
//
// The queue/retry/quarantine core lives in the transport-agnostic
// internal/sched package; this package wraps it with the HTTP surface,
// per-client token-bucket rate limiting, request-size limits, the durable
// job journal (internal/server/store), X-Request-ID tracing and the local
// execution function, which runs jobs through the engine subsystem
// (content-addressed result cache, panic-to-error isolation, engine_*
// metrics). The same Server also underlies both roles of the cluster
// subsystem (internal/cluster): a coordinator swaps the execution function
// for remote placement, a worker adds peer cache fetching. Observability
// is native: the server_* metric family, the engine_* and controller_*
// families of the runs it hosts, Prometheus /metrics and net/http/pprof
// share one mux. See docs/SERVER.md.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"sparseadapt/internal/engine"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server/store"
	"sparseadapt/internal/tenant"
)

// Config sizes the server. The zero value is usable: every field has a
// production-lean default applied by New.
type Config struct {
	// Sched sizes the job scheduler: workers, queue depth, job timeout,
	// retention, retries and the failure-rate circuit breaker. A full queue
	// rejects submissions with 429; while the breaker is open the server
	// sheds new submissions with 503 and fails /readyz.
	Sched sched.Config
	// RatePerSec is the per-client job submission rate (token bucket,
	// default 0 = unlimited); Burst is the bucket depth (default 8).
	RatePerSec float64
	Burst      int
	// MaxBodyBytes caps the request body, bounding MatrixMarket uploads
	// (default 8 MiB), and the door parse a queued job keeps. Oversized
	// bodies get 413.
	MaxBodyBytes int64
	// CacheEntries sizes the in-memory tier of the content-addressed result
	// cache (default 512); CacheDir adds a persistent on-disk tier.
	CacheEntries int
	CacheDir     string
	// StoreDir enables the durable job store: a checksummed write-ahead
	// journal of job lifecycle events under this directory. On boot the
	// journal is replayed — terminal jobs are resurfaced with their
	// persisted results, queued and in-flight jobs are re-queued and
	// re-executed. Empty disables durability (a crash loses non-terminal
	// jobs, the pre-journal behavior).
	StoreDir string
	// SSEKeepalive is the idle interval after which event streams emit a
	// ": keepalive" SSE comment so forwarded streams survive proxy and
	// load-balancer idle timeouts (default 15s; negative disables).
	SSEKeepalive time.Duration
	// Exec overrides the execution function. Nil (the standalone daemon and
	// cluster workers) runs jobs locally through the engine; the cluster
	// coordinator substitutes remote placement.
	Exec sched.ExecFunc
	// PeerFetch, when non-nil, is consulted on a local result-cache miss
	// before computing: it may return a framed cache entry (engine
	// EncodeEntry payload bytes) fetched from a peer node holding the same
	// fingerprint. Cluster workers wire this to the peer cache protocol.
	PeerFetch func(ctx context.Context, key engine.Key) ([]byte, bool)
	// JobLog, when non-nil, receives one line per job lifecycle edge
	// (accepted, retry, terminal), each carrying the job and request IDs.
	JobLog io.Writer
	// Chaos, when non-nil, injects deterministic service-layer faults
	// (exec panics, journal write errors, cache corruption, mid-epoch
	// kills) for resilience testing. Never set in production.
	Chaos *fault.Chaos
	// TenantQuota bounds each tenant's use of the admission queue: an
	// inflight-job cap and a submission token bucket, enforced before a
	// global queue slot is reserved so one tenant's rejections never consume
	// global admission capacity. The zero value disables enforcement; jobs
	// carrying a tenant are still tracked and reported on /v1/tenants.
	TenantQuota tenant.Quota
	// Metrics, when non-nil, receives the server_* family (and the engine_*
	// family of the execution engine). New creates a private registry when
	// nil, so /metrics always works.
	Metrics *obs.Registry
}

func (c *Config) defaults() {
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.SSEKeepalive == 0 {
		c.SSEKeepalive = 15 * time.Second
	}
}

// serverMetrics is the HTTP-side slice of the server_* instrument family;
// the job lifecycle metrics live with the scheduler (catalog in
// docs/OBSERVABILITY.md).
type serverMetrics struct {
	rejectedQueue, rejectedRate, badRequest *obs.Counter
	rejectedBreaker                         *obs.Counter
	journalAppends, journalErrors           *obs.Counter
	httpRequests                            *obs.Counter
	sseClients                              *obs.Gauge
	httpDuration                            *obs.Histogram
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		rejectedQueue:   r.Counter("server_admission_rejected_total", "submissions rejected because the queue was full"),
		rejectedRate:    r.Counter("server_ratelimit_rejected_total", "submissions rejected by the per-client rate limit"),
		rejectedBreaker: r.Counter("server_breaker_rejected_total", "submissions shed while the circuit breaker was open"),
		journalAppends:  r.Counter("server_journal_appends_total", "records committed to the durable job journal"),
		journalErrors:   r.Counter("server_journal_errors_total", "journal writes that failed"),
		badRequest:      r.Counter("server_bad_requests_total", "submissions rejected as malformed (400/413)"),
		httpRequests:    r.Counter("server_http_requests_total", "HTTP requests served"),
		sseClients:      r.Gauge("server_sse_clients", "connected event-stream subscribers"),
		httpDuration:    r.Histogram("server_http_request_duration_seconds", "HTTP request latency", sched.LatencyBuckets),
	}
}

// Server is the simulation job server. Construct with New, mount Handler
// on an http.Server, call Start to launch the worker pool, and Drain on
// shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	eng   *engine.Engine
	sch   *sched.Scheduler
	met   serverMetrics
	rl    *rateLimiter
	tt    *tenant.Tracker
	store *store.Store // nil when durability is disabled
	mux   *http.ServeMux

	logMu sync.Mutex
	birth time.Time
}

// New builds a Server from cfg (zero value = defaults). With StoreDir set
// it opens (or creates) the durable job store and recovers: terminal jobs
// reappear with their persisted results, queued and in-flight jobs are
// re-queued for execution when Start launches the worker pool.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cache, err := engine.NewCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		met:   newServerMetrics(reg),
		rl:    newRateLimiter(cfg.RatePerSec, cfg.Burst),
		birth: time.Now(),
	}
	s.tt = tenant.NewTracker(cfg.TenantQuota, reg)
	exec := cfg.Exec
	if exec == nil {
		exec = s.localExec
	}
	s.sch = sched.New(cfg.Sched, reg, exec, sched.Hooks{
		AttemptStart: func(j *sched.Job, attempt int) {
			// Best-effort: a lost running-record only means recovery re-runs
			// an attempt that never reported back — exactly what it would do
			// anyway.
			s.journal(store.Record{Type: store.RecRunning, JobID: j.ID(), Attempt: attempt}) //nolint:errcheck
		},
		AttemptFailed: func(j *sched.Job, attempt int, err error) {
			s.logf("job=%s request_id=%s attempt=%d retrying: %v", j.ID(), j.RequestID(), attempt, err)
			s.journal(store.Record{Type: store.RecAttemptFailed, JobID: j.ID(), Attempt: attempt, Error: err.Error()}) //nolint:errcheck // best-effort
		},
		Finished: func(st sched.JobStatus) {
			s.logf("job=%s request_id=%s state=%s attempts=%d", st.ID, st.RequestID, st.State, st.Attempts)
			s.journalTerminal(st)
			s.tt.Release(st.ID, st.FinishedAt.Sub(st.CreatedAt))
		},
		Evicted: func(id string) {
			if s.store != nil {
				s.store.Forget(id)
			}
		},
	})
	// The engine uses the scheduler's effective worker count so a defaulted
	// Config reports the same concurrency everywhere.
	s.eng = engine.New(engine.Options{Workers: s.sch.Config().Workers, Cache: cache, Metrics: reg})
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		st.FaultHook = cfg.Chaos.JournalFault
		s.store = st
		if err := s.recoverFromStore(); err != nil {
			st.Close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Recovered returns how many non-terminal jobs the boot recovery re-queued.
func (s *Server) Recovered() int { return s.sch.Recovered() }

// Close compacts and closes the durable store. Call after Drain; the
// server must not execute jobs afterwards.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Metrics returns the server's registry (for embedding callers).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Cache returns the engine's content-addressed result cache (for the
// cluster peer-cache protocol).
func (s *Server) Cache() *engine.Cache { return s.eng.Cache() }

// Scheduler returns the underlying job scheduler (for embedding callers —
// the cluster coordinator re-queues jobs through it).
func (s *Server) Scheduler() *sched.Scheduler { return s.sch }

// HandleFunc registers an additional route on the server's mux, letting
// embedding subsystems (the cluster coordinator and worker) extend the API
// surface without a second listener.
func (s *Server) HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(pattern, handler)
}

// Start launches the worker pool. Safe to call once.
func (s *Server) Start() { s.sch.Start() }

// Drain gracefully shuts the job side down: it stops accepting new
// submissions (503), lets the workers finish every queued and in-flight
// job, and returns when the pool has exited. If ctx expires first, the
// remaining running jobs are canceled, the drain keeps waiting for the
// workers to observe the cancellation, and ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error { return s.sch.Drain(ctx) }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.sch.Draining() }

// logf writes one job-lifecycle log line when Config.JobLog is set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.JobLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.cfg.JobLog, format+"\n", args...) //nolint:errcheck // logging is best-effort
}

// Handler returns the server's HTTP handler: the versioned API, health
// and readiness probes, Prometheus /metrics and /debug/pprof, all on one
// mux, wrapped with request accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.httpRequests.Inc()
		s.mux.ServeHTTP(w, r)
		s.met.httpDuration.Observe(time.Since(start).Seconds())
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// retryAfter sets the Retry-After header to d rounded up to whole seconds
// (minimum 1, the header's resolution).
func retryAfter(w http.ResponseWriter, d time.Duration) {
	sec := int(math.Ceil(d.Seconds()))
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
}

// requestID returns the submission's trace identifier: a client-supplied
// X-Request-ID (validated: 1–64 printable non-space-controlled ASCII
// characters) or a freshly generated 16-hex-digit one. Invalid supplied
// IDs are rejected rather than silently replaced, so the client's tracing
// never diverges from the server's.
func requestID(r *http.Request) (string, error) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return "", fmt.Errorf("generating request id: %w", err)
		}
		return hex.EncodeToString(buf[:]), nil
	}
	if len(id) > 64 {
		return "", fmt.Errorf("X-Request-ID longer than 64 characters")
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return "", fmt.Errorf("X-Request-ID contains non-printable or non-ASCII characters")
		}
	}
	return id, nil
}

// handleSubmit is POST /v1/jobs: rate limit → circuit breaker →
// parse/validate → admission control → durable accept → enqueue. The
// rejection layers are deliberately ordered cheapest-first, and every shed
// response carries a real Retry-After so well-behaved clients back off by
// the server's own estimate instead of guessing.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	if ok, wait := s.rl.allow(clientKey(r.RemoteAddr), now); !ok {
		s.met.rejectedRate.Inc()
		retryAfter(w, wait)
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded, retry in %s", wait.Round(time.Millisecond))
		return
	}
	if open, wait := s.sch.BreakerOpen(now); open {
		s.met.rejectedBreaker.Inc()
		retryAfter(w, wait)
		writeError(w, http.StatusServiceUnavailable, "circuit breaker open (execution failure rate too high), retry in %s", wait.Round(time.Millisecond))
		return
	}
	rid, err := requestID(r)
	if err != nil {
		s.met.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.met.badRequest.Inc()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	req, upload, err := sched.DecodeJobRequest(body)
	if err != nil {
		s.met.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch {
	case s.cfg.Exec != nil:
		// The job runs elsewhere (a coordinator places it on a worker,
		// which parses the upload at its own door), so the parse would
		// only sit in memory until the job ends.
		upload = nil
	case upload != nil && parseBytes(upload) > s.cfg.MaxBodyBytes:
		// A parse can outgrow its text many times over (a symmetric
		// pattern line of 4 bytes becomes two 24-byte entries). Keeping
		// only parses within the body cap bounds what a queued job holds
		// beside its upload string; this job parses the string when it
		// runs, as a retry does.
		upload = nil
	}
	// The tenant rides in the body's "tenant" field or the X-Tenant-ID
	// header; the field wins so coordinator→worker forwarding (which
	// re-serializes the body) preserves it. A header-sourced tenant goes
	// through the same name rules and priority default.
	if req.Tenant == "" {
		if hdr := r.Header.Get("X-Tenant-ID"); hdr != "" {
			req.Tenant = hdr
			if err := req.ValidateTenant(); err != nil {
				s.met.badRequest.Inc()
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
	}
	class, err := tenant.ParseClass(req.Priority)
	if err != nil {
		s.met.badRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Tenant admission runs before the scheduler reserves a global slot: a
	// tenant at its quota is rejected with its own Retry-After (the EWMA of
	// its job residence times, not the global queue hint) and never consumes
	// global admission capacity.
	if hint, err := s.tt.Admit(req.Tenant, class, now); err != nil {
		retryAfter(w, hint)
		writeError(w, http.StatusTooManyRequests, "tenant %s: %v, retry in %s", req.Tenant, err, hint.Round(time.Millisecond))
		return
	}

	// Phase one: reserve an admission slot (the scheduler holds it while
	// the acceptance record commits, so the post-journal enqueue can never
	// overflow the queue).
	j, err := s.sch.Reserve(req, upload, rid, now)
	switch {
	case errors.Is(err, sched.ErrDraining):
		s.tt.Cancel(req.Tenant)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, sched.ErrQueueFull):
		s.tt.Cancel(req.Tenant)
		s.met.rejectedQueue.Inc()
		retryAfter(w, s.sch.QueueRetryHint())
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued)", s.sch.Config().QueueDepth)
		return
	case err != nil:
		s.tt.Cancel(req.Tenant)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// Durability point: the job is accepted once (and only once) the
	// journal record is committed, and only then enqueued — a worker can
	// never dequeue (let alone run) a job whose acceptance failed. On
	// journal failure, withdraw the job and shed with 503 so the client
	// knows the submission did not take.
	if err := s.journalAccept(j); err != nil {
		s.sch.Withdraw(j)
		s.tt.Cancel(req.Tenant)
		retryAfter(w, time.Second)
		writeError(w, http.StatusServiceUnavailable, "journal write failed, job not accepted: %v", err)
		return
	}

	if err := s.sch.Commit(j); err != nil {
		// Drain closed the queue while the acceptance record was
		// committing. The job was canceled — journal the terminal record so
		// the next boot does not resurrect it — and shed the submission.
		s.journalTerminal(j.Status())
		s.tt.Cancel(req.Tenant)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.tt.Bind(j.ID(), req.Tenant)
	s.logf("job=%s request_id=%s accepted mode=%s kernel=%s", j.ID(), rid, req.Mode, req.Kernel)
	w.Header().Set("X-Request-ID", rid)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// parseBytes is the memory m's entry arrays hold, counted by capacity.
func parseBytes(m *matrix.COO) int64 {
	return int64(cap(m.R)+cap(m.C))*bits.UintSize/8 + int64(cap(m.V))*8
}

// readBody consumes the request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	defer r.Body.Close()
	return io.ReadAll(r.Body)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.sch.Lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sch.List())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.sch.Lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !j.RequestCancel() {
		writeError(w, http.StatusConflict, "job %s already finished", j.ID())
		return
	}
	// A queued job cancels synchronously without the Finished hook firing,
	// so release its tenant slot here; Release is idempotent, so the
	// running-job path (where the hook does fire later) is unaffected.
	if st := j.Status(); st.Terminal() {
		s.tt.Release(st.ID, st.FinishedAt.Sub(st.CreatedAt))
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream
// replaying the job's full event history and following it live until the
// job reaches a terminal state or the client disconnects. Idle streams
// carry periodic ": keepalive" comments so intermediaries (cluster
// coordinators, proxies, load balancers) do not sever them.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.sch.Lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.met.sseClients.Add(1)
	defer s.met.sseClients.Add(-1)

	var keepalive <-chan time.Time
	if s.cfg.SSEKeepalive > 0 {
		t := time.NewTicker(s.cfg.SSEKeepalive)
		defer t.Stop()
		keepalive = t.C
	}

	idx := 0
	// Honor Last-Event-ID resumption: replay from the event after it. The
	// sum saturates, so an ID at or past the log's end replays nothing.
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			idx = min(n, math.MaxInt-1) + 1
		}
	}
	for {
		frames, next, end, wake := j.Events().Frames(idx)
		if len(frames) > 0 {
			if _, err := w.Write(frames); err != nil {
				return // client disconnected
			}
			fl.Flush()
		}
		if end {
			return
		}
		idx = next
		select {
		case <-wake:
		case <-keepalive:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, matrix.Dataset)
}

// handleTenants is GET /v1/tenants: every tenant's admission state —
// inflight jobs, admitted/finished/rejected counts, and the residence-time
// EWMA behind its Retry-After hints — sorted by tenant ID.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tt.Snapshot())
}

// Tenants returns the tenant admission tracker (for embedding callers and
// tests).
func (s *Server) Tenants() *tenant.Tracker { return s.tt }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	breakerState := "closed"
	if open, _ := s.sch.BreakerOpen(time.Now()); open {
		breakerState = "open"
	}
	info := map[string]any{
		"status":         "ok",
		"uptime_sec":     time.Since(s.birth).Seconds(),
		"queue_depth":    s.sch.QueueLen(),
		"jobs_inflight":  s.sch.Inflight(),
		"engine_workers": s.eng.Workers(),
		"breaker":        breakerState,
		"breaker_trips":  s.sch.BreakerTrips(),
		"durable":        s.store != nil,
		"tenants_active": s.tt.Active(),
	}
	if s.store != nil {
		st := s.store.Stats()
		info["jobs_recovered"] = s.sch.Recovered()
		info["journal_appends"] = st.Appends
		info["journal_replayed"] = st.Replayed
		info["journal_compactions"] = st.Compactions
		info["journal_truncated_tail"] = st.TruncatedTail
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.sch.Started() {
		writeError(w, http.StatusServiceUnavailable, "worker pool not started")
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if open, wait := s.sch.BreakerOpen(time.Now()); open {
		// An open breaker fails readiness so load balancers steer new work
		// away while in-flight jobs drain; liveness (healthz) stays ok.
		retryAfter(w, wait)
		writeError(w, http.StatusServiceUnavailable, "circuit breaker open for %s", wait.Round(time.Millisecond))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": obs.Version("sparseadaptd")})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w) //nolint:errcheck // best-effort scrape
}
