// Package sched is the transport-agnostic job scheduling core extracted
// from the HTTP server: a bounded admission queue with reserved-slot
// two-phase submission (Reserve → durable accept → Commit), a fixed worker
// pool driving an ExecFunc through the retry state machine (exponential
// backoff with deterministic jitter, quarantine after MaxAttempts), a
// failure-rate circuit breaker, bounded retention of terminal job records,
// and graceful drain.
//
// The package knows nothing about HTTP, journals or engines: callers
// provide the execution function (the standalone daemon runs simulations
// locally; the cluster coordinator places jobs on remote workers) and
// observe lifecycle transitions through Hooks (the server journals them).
// Metrics keep their established server_* names so dashboards survive the
// extraction. See docs/ARCHITECTURE.md and docs/SERVER.md.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
)

// ExecFunc performs one execution attempt of a job under ctx (which
// carries the per-job deadline and cancellation). It returns the result,
// whether it was served from a cache, and an error. Errors wrapping
// context.Canceled or context.DeadlineExceeded finalize the job; any other
// error feeds the retry/quarantine state machine and the circuit breaker.
type ExecFunc func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error)

// Hooks are the scheduler's lifecycle observation points. All fields are
// optional. The HTTP server uses them to journal transitions into the
// durable store; Evicted fires (with internal locks held — keep it cheap)
// when bounded retention drops a terminal job.
type Hooks struct {
	// AttemptStart fires when an execution attempt begins (after the
	// queued → running transition).
	AttemptStart func(j *Job, attempt int)
	// AttemptFailed fires when a failed attempt will be retried (not on
	// terminal failures — Finished covers those).
	AttemptFailed func(j *Job, attempt int, err error)
	// Finished fires exactly once per job reaching a terminal state through
	// the worker pool, with the terminal status snapshot. Jobs canceled
	// while still queued are finalized by RequestCancel and do not fire it
	// (preserved pre-extraction behavior: such jobs journal no terminal
	// record and re-run after a crash).
	Finished func(st JobStatus)
	// Evicted fires when retention evicts a terminal job record.
	Evicted func(id string)
}

// Config sizes the scheduler. The zero value is usable: every field has a
// production-lean default applied by New.
type Config struct {
	// Workers bounds concurrent job executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue makes Reserve return ErrQueueFull (default 64).
	QueueDepth int
	// JobTimeout is the default and maximum per-job execution deadline
	// (default 5 minutes). Requests may ask for less, never more.
	JobTimeout time.Duration
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// evicted beyond it (default 1024).
	MaxJobs int
	// MaxAttempts bounds execution attempts per job (default 3). A job
	// whose every attempt fails is quarantined.
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the exponential backoff with
	// deterministic jitter between attempts (defaults 50ms and 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerWindow, BreakerThreshold and BreakerCooldown configure the
	// failure-rate circuit breaker over execution attempts (defaults 20,
	// 0.5, 10s). A threshold above 1 disables the breaker.
	BreakerWindow    int
	BreakerThreshold float64
	BreakerCooldown  time.Duration
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 0.5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
}

// Sentinel errors of the two-phase submission path.
var (
	// ErrDraining rejects submissions after Drain began.
	ErrDraining = errors.New("sched: draining")
	// ErrQueueFull rejects submissions when the admission queue is full.
	ErrQueueFull = errors.New("sched: queue full")
)

// metrics is the scheduler's slice of the server_* instrument family
// (catalog in docs/OBSERVABILITY.md). Names predate the extraction and are
// kept stable.
type metrics struct {
	submitted, completed, failed, canceled *obs.Counter
	quarantined, retries, recovered        *obs.Counter
	breakerTrips                           *obs.Counter
	queueDepth, inflight, brkOpen          *obs.Gauge
	retained                               *obs.Gauge
	jobDuration, queueWait                 *obs.Histogram
}

// LatencyBuckets are the histogram bounds shared by the scheduler's and
// the server's duration metrics.
var LatencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		submitted:    r.Counter("server_jobs_submitted_total", "jobs accepted into the queue"),
		completed:    r.Counter("server_jobs_completed_total", "jobs finished successfully"),
		failed:       r.Counter("server_jobs_failed_total", "jobs finished with an error"),
		canceled:     r.Counter("server_jobs_canceled_total", "jobs canceled by the client or deadline"),
		quarantined:  r.Counter("server_jobs_quarantined_total", "jobs quarantined after exhausting their retry budget"),
		retries:      r.Counter("server_job_retries_total", "execution attempts retried after a transient failure"),
		recovered:    r.Counter("server_jobs_recovered_total", "non-terminal jobs re-queued from the journal at boot"),
		breakerTrips: r.Counter("server_breaker_trips_total", "times the failure-rate circuit breaker opened"),
		queueDepth:   r.Gauge("server_queue_depth", "jobs waiting in the admission queue"),
		inflight:     r.Gauge("server_jobs_inflight", "jobs currently executing"),
		brkOpen:      r.Gauge("server_breaker_open", "1 while the circuit breaker is shedding submissions"),
		retained:     r.Gauge("server_retained_bytes", "bytes of sealed event streams held by retained finished jobs"),
		jobDuration:  r.Histogram("server_job_duration_seconds", "job execution wall time", LatencyBuckets),
		queueWait:    r.Histogram("server_job_queue_wait_seconds", "time jobs spend queued before execution", LatencyBuckets),
	}
}

// Scheduler is the job scheduling core. Construct with New, call Start to
// launch the worker pool, and Drain on shutdown.
type Scheduler struct {
	cfg   Config
	met   metrics
	exec  ExecFunc
	hooks Hooks
	brk   *breaker

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string // insertion order, for bounded retention
	nextID   int64
	draining bool
	queue    []*Job
	reserved int // admission slots held by submissions still journaling
	capacity int // admission bound: QueueDepth, raised by recovered jobs

	started   atomic.Bool
	wg        sync.WaitGroup
	recovered int           // non-terminal jobs re-queued at boot
	avgJobSec atomic.Uint64 // EWMA of job wall time (float64 bits), for Retry-After
}

// New builds a Scheduler running exec on cfg.Workers goroutines once Start
// is called. reg receives the server_* job metrics; nil records nothing.
// hooks may be the zero value.
func New(cfg Config, reg *obs.Registry, exec ExecFunc, hooks Hooks) *Scheduler {
	cfg.defaults()
	s := &Scheduler{
		cfg:   cfg,
		met:   newMetrics(reg),
		exec:  exec,
		hooks: hooks,
		brk:   newBreaker(cfg.BreakerWindow, cfg.BreakerThreshold, cfg.BreakerCooldown),
		jobs:  map[string]*Job{},
	}
	s.capacity = s.cfg.QueueDepth
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Config returns the scheduler's effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Reserve is phase one of submission: it registers the job and holds an
// admission slot while the caller commits the acceptance durably. Phase
// two is Commit (enqueue for execution) or Withdraw (acceptance failed —
// the client must be told the submission did not take). Counting reserved
// slots against the queue bound means Commit can never overflow the queue.
// upload is the door's parse of req.MatrixMarket, or nil; the job holds it
// for the attempt that takes it (Job.TakeUpload).
func (s *Scheduler) Reserve(req JobRequest, upload *matrix.COO, requestID string, now time.Time) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if len(s.queue)+s.reserved >= s.capacity {
		return nil, ErrQueueFull
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), req, upload, requestID, now, s.met.retained)
	s.reserved++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j, nil
}

// Commit is phase two of a successful submission: the reserved job enters
// the execution queue. If a drain began while the caller was journaling,
// the job is canceled and ErrDraining returned — the caller owns telling
// its durable store the job will never run.
func (s *Scheduler) Commit(j *Job) error {
	s.mu.Lock()
	s.reserved--
	if s.draining {
		s.mu.Unlock()
		j.RequestCancel()
		return ErrDraining
	}
	s.queue = append(s.queue, j)
	s.met.queueDepth.Add(1)
	s.cond.Signal()
	s.mu.Unlock()
	s.met.submitted.Inc()
	return nil
}

// Withdraw aborts a reserved submission whose durable acceptance failed:
// the job is canceled and deregistered as if it was never submitted.
func (s *Scheduler) Withdraw(j *Job) {
	j.RequestCancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved--
	s.forgetLocked(j.id)
}

func (s *Scheduler) forgetLocked(id string) {
	s.dropLocked(id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// dropLocked removes a job from the map and its sealed stream from the
// retained-bytes gauge.
func (s *Scheduler) dropLocked(id string) {
	if j, ok := s.jobs[id]; ok {
		s.met.retained.Add(-float64(j.events.sealedBytes()))
		delete(s.jobs, id)
	}
}

// Restore registers a job rebuilt from a durable journal at boot, resuming
// the ID sequence past it. The caller then either resurfaces it as
// terminal (RestoreTerminal) or re-queues it (Requeue). Must be called
// before Start.
func (s *Scheduler) Restore(id string, req JobRequest, requestID string, created time.Time) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := parseJobID(id); ok && n > s.nextID {
		s.nextID = n
	}
	j := newJob(id, req, nil, requestID, created, s.met.retained)
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// RestoreTerminal resurfaces a restored job's terminal outcome and seals
// its event stream, so status polls and SSE replays after a restart behave
// exactly like they would have before it.
func (s *Scheduler) RestoreTerminal(j *Job, state string, finished time.Time, errMsg string, cacheHit bool, result *JobResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.end(state, finished, errMsg, cacheHit, result)
}

// Requeue puts a restored non-terminal job back on the execution queue.
// Recovered jobs are admitted above the queue bound (each raises the
// admission capacity by one slot, mirroring the pre-extraction queue
// sizing): they were accepted before the restart and must not be shed by
// it, nor crowd out new submissions.
func (s *Scheduler) Requeue(j *Job) {
	s.mu.Lock()
	s.queue = append(s.queue, j)
	s.recovered++
	s.capacity++
	s.cond.Signal()
	s.mu.Unlock()
	s.met.queueDepth.Add(1)
	s.met.recovered.Inc()
}

// Recovered returns how many non-terminal jobs Requeue re-admitted at boot.
func (s *Scheduler) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Lookup returns the job with the given ID, or nil.
func (s *Scheduler) Lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// List snapshots every retained job's status in insertion order.
func (s *Scheduler) List() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// QueueLen returns the number of jobs waiting for a worker.
func (s *Scheduler) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Inflight returns the number of jobs currently executing.
func (s *Scheduler) Inflight() int { return int(s.met.inflight.Load()) }

// evictLocked drops the oldest terminal jobs beyond the retention bound.
// Live (queued/running) jobs are never evicted, so the map can exceed
// MaxJobs only by the number of live jobs, which the queue bounds.
func (s *Scheduler) evictLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if j, ok := s.jobs[id]; ok && j.Status().Terminal() {
				s.dropLocked(id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				if s.hooks.Evicted != nil {
					s.hooks.Evicted(id)
				}
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Start launches the worker pool. Safe to call once.
func (s *Scheduler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Started reports whether the worker pool is running.
func (s *Scheduler) Started() bool { return s.started.Load() }

// Drain gracefully shuts the scheduler down: it stops accepting new
// submissions, lets the workers finish every queued and in-flight job, and
// returns when the pool has exited. If ctx expires first, the remaining
// running jobs are canceled, the drain keeps waiting for the workers to
// observe the cancellation, and ctx.Err() is returned.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !s.started.Load() {
		return nil
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline: cancel whatever is still running so the workers can
		// exit, then wait for them (cancellation is cooperative and prompt).
		s.mu.Lock()
		jobs := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			j.RequestCancel()
		}
		<-done
		return ctx.Err()
	}
}

// Draining reports whether the scheduler has begun shutting down.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker executes jobs from the queue until drain empties it.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.met.queueDepth.Add(-1)
		s.execute(j)
	}
}

// execute runs one dequeued job to a terminal state through the retry
// state machine: attempt → on failure, backoff + retry → after
// MaxAttempts, quarantine. What one attempt does is the ExecFunc's
// business — a local engine run, or a placement on a remote cluster
// worker.
func (s *Scheduler) execute(j *Job) {
	s.met.queueWait.Observe(time.Since(j.created).Seconds())
	timeout := s.cfg.JobTimeout
	if j.req.TimeoutSec > 0 {
		if d := time.Duration(j.req.TimeoutSec * float64(time.Second)); d < timeout {
			timeout = d
		}
	}
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	begin := time.Now()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		attempt := j.start(cancel, time.Now())
		if attempt == 0 {
			cancel()
			return // canceled while queued; RequestCancel already finalized it
		}
		if s.hooks.AttemptStart != nil {
			s.hooks.AttemptStart(j, attempt)
		}

		res, hit, err := s.exec(ctx, j, attempt)
		cancel()

		if err == nil {
			s.noteAttempt(true)
			sec := time.Since(begin).Seconds()
			s.met.jobDuration.Observe(sec)
			s.noteJobDuration(sec)
			s.finishJob(j, res, hit, nil, false)
			return
		}

		// Client cancellations and deadline expiries are not transient: the
		// job is done as far as the requester is concerned. Only execution
		// failures feed the breaker and the retry loop.
		if j.CancelRequested() || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.jobDuration.Observe(time.Since(begin).Seconds())
			s.finishJob(j, nil, false, err, false)
			return
		}

		s.noteAttempt(false)
		if attempt >= s.cfg.MaxAttempts {
			s.met.jobDuration.Observe(time.Since(begin).Seconds())
			s.finishJob(j, nil, false,
				fmt.Errorf("quarantined after %d failed attempts, last: %w", attempt, err), true)
			return
		}
		s.met.retries.Inc()
		j.retry(attempt, err)
		if s.hooks.AttemptFailed != nil {
			s.hooks.AttemptFailed(j, attempt, err)
		}
		if !j.sleep(backoffDelay(s.cfg.RetryBaseDelay, s.cfg.RetryMaxDelay, j.id, attempt)) {
			// Canceled during the backoff sleep.
			s.met.jobDuration.Observe(time.Since(begin).Seconds())
			s.finishJob(j, nil, false, fmt.Errorf("canceled during retry backoff (last error: %v)", err), false)
			return
		}
	}
}

// finishJob finalizes the job, bumps the terminal-state metric, and fires
// the Finished hook.
func (s *Scheduler) finishJob(j *Job, res *JobResult, hit bool, err error, quarantine bool) {
	j.finish(res, hit, err, quarantine, time.Now())
	st := j.Status()
	switch st.State {
	case StateDone:
		s.met.completed.Inc()
	case StateCanceled:
		s.met.canceled.Inc()
	case StateQuarantined:
		s.met.quarantined.Inc()
	default:
		s.met.failed.Inc()
	}
	if s.hooks.Finished != nil {
		s.hooks.Finished(st)
	}
}

// noteAttempt feeds one execution-attempt outcome to the circuit breaker
// and maintains the breaker gauge/trip counter.
func (s *Scheduler) noteAttempt(success bool) {
	now := time.Now()
	if s.brk.record(success, now) {
		s.met.breakerTrips.Inc()
	}
	if open, _ := s.brk.open(now); open {
		s.met.brkOpen.Set(1)
	} else {
		s.met.brkOpen.Set(0)
	}
}

// BreakerOpen reports whether the circuit breaker is shedding submissions
// and, if so, for how much longer — the Retry-After hint.
func (s *Scheduler) BreakerOpen(now time.Time) (bool, time.Duration) {
	return s.brk.open(now)
}

// BreakerTrips returns how many times the breaker has opened.
func (s *Scheduler) BreakerTrips() int64 { return s.brk.tripCount() }

// QueueRetryHint estimates how long until a queue slot frees: the current
// depth draining through the worker pool at the observed average job
// duration, clamped to [1s, 60s]. Before any job has finished it falls
// back to 1s.
func (s *Scheduler) QueueRetryHint() time.Duration {
	avg := math.Float64frombits(s.avgJobSec.Load())
	depth := float64(s.met.queueDepth.Load())
	workers := float64(s.cfg.Workers)
	est := time.Duration(avg * depth / workers * float64(time.Second))
	if est < time.Second {
		return time.Second
	}
	if est > time.Minute {
		return time.Minute
	}
	return est
}

// noteJobDuration folds one job wall time into the EWMA behind
// QueueRetryHint.
func (s *Scheduler) noteJobDuration(sec float64) {
	for {
		old := s.avgJobSec.Load()
		avg := math.Float64frombits(old)
		if avg == 0 {
			avg = sec
		} else {
			avg = 0.8*avg + 0.2*sec
		}
		if s.avgJobSec.CompareAndSwap(old, math.Float64bits(avg)) {
			return
		}
	}
}

// parseJobID extracts the numeric suffix of a "job-%06d" ID so recovery
// can resume the ID sequence past every journaled job.
func parseJobID(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// backoffDelay computes the pre-retry sleep for a failed attempt:
// exponential from base, capped at max, with deterministic jitter in
// [0.5, 1.5) hashed from (jobID, attempt) — spread-out retries without a
// shared RNG, and reproducible under chaos.
func backoffDelay(base, max time.Duration, jobID string, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 || d > max { // <= 0 catches shift overflow
		d = max
	}
	h := splitmixJitter(jobID, attempt)
	jitter := 0.5 + float64(h>>11)/float64(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// splitmixJitter is a splitmix64 finalizer over fnv1a(jobID) ^ attempt.
func splitmixJitter(jobID string, attempt int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= 1099511628211
	}
	z := h ^ uint64(attempt)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
