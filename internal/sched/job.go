package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
)

// Job is the scheduler-side record of one submitted simulation: the
// request, the door's parse of its upload until an attempt takes it, the
// lifecycle state machine (including the retry attempt counter), the
// cancellation handle of a running execution and the append-only event
// log SSE subscribers replay. Jobs are created by the Scheduler (Reserve,
// Restore) and driven by its worker pool; the exported surface is what
// transports (HTTP server, cluster coordinator) need: status snapshots,
// cancellation, and event emission/subscription.
type Job struct {
	id        string
	req       JobRequest
	requestID string
	created   time.Time
	// echo is req without its upload, which uploadBytes and uploadSHA256
	// stand for in every status.
	echo         JobRequest
	uploadBytes  int
	uploadSHA256 string

	mu        sync.Mutex
	state     string
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *JobResult
	cacheHit  bool
	attempts  int
	recovered bool               // restored from the journal after a restart
	cancel    context.CancelFunc // non-nil while running
	canceled  bool               // cancel requested (possibly pre-start)
	cancelCh  chan struct{}      // closed on cancel; wakes backoff sleeps
	// upload is the door's parse of req.MatrixMarket, held until an
	// attempt takes it or the job ends (TakeUpload).
	upload *matrix.COO

	events *EventLog
}

func newJob(id string, req JobRequest, upload *matrix.COO, requestID string, now time.Time) *Job {
	j := &Job{id: id, req: req, requestID: requestID, created: now, echo: req,
		upload: upload, state: StateQueued, cancelCh: make(chan struct{}),
		events: newEventLog(requestID)}
	if req.MatrixMarket != "" {
		sum := sha256.Sum256([]byte(req.MatrixMarket))
		j.echo.MatrixMarket = ""
		j.uploadBytes = len(req.MatrixMarket)
		j.uploadSHA256 = hex.EncodeToString(sum[:])
	}
	j.events.append(Event{Type: "state", State: StateQueued})
	return j
}

// ID returns the job's identifier ("job-%06d").
func (j *Job) ID() string { return j.id }

// RequestID returns the submission's trace identifier (X-Request-ID).
func (j *Job) RequestID() string { return j.requestID }

// Request returns the validated job request, upload included.
func (j *Job) Request() JobRequest { return j.req }

// TakeUpload hands the door's parse of the job's matrix_market upload to
// the attempt that runs it, once. A later attempt, a job restored from the
// journal, a job on a dataset entry and a job that has ended get nil; an
// attempt that gets nil parses req.MatrixMarket itself.
func (j *Job) TakeUpload() *matrix.COO {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := j.upload
	j.upload = nil
	return m
}

// Events returns the job's append-only event log for SSE subscribers.
func (j *Job) Events() *EventLog { return j.events }

// Status snapshots the job under its lock.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	return JobStatus{
		ID: j.id, State: j.state, Request: j.echo,
		UploadBytes: j.uploadBytes, UploadSHA256: j.uploadSHA256,
		CreatedAt: j.created, StartedAt: j.started, FinishedAt: j.finished,
		RequestID: j.requestID, Error: j.errMsg, Result: j.result,
		CacheHit: j.cacheHit, Attempts: j.attempts, Recovered: j.recovered,
	}
}

// start begins the next execution attempt, transitioning queued → running
// on the first and installing the attempt's cancel handle. It returns the
// 1-based attempt number, or 0 when the job was canceled while queued (the
// worker must skip it). Attempts surviving a daemon restart keep counting
// from their journaled value — a poison job cannot reset its quarantine
// budget by crashing the server.
func (j *Job) start(cancel context.CancelFunc, now time.Time) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return 0
	}
	j.attempts++
	if j.state != StateRunning {
		j.state = StateRunning
		j.started = now
		j.events.append(Event{Type: "state", State: StateRunning})
	}
	j.cancel = cancel
	return j.attempts
}

// retry records a failed attempt that will be re-executed.
func (j *Job) retry(attempt int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	j.events.append(Event{Type: "retry", Attempt: attempt, Error: err.Error()})
}

// finish records the terminal state, emits the final event and closes the
// event stream. A canceled job that raced to completion stays canceled;
// quarantine marks a job whose retry budget is exhausted.
func (j *Job) finish(res *JobResult, cacheHit bool, err error, quarantine bool, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = now
	j.cancel = nil
	j.upload = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.cacheHit = cacheHit
	case j.canceled:
		j.state = StateCanceled
		j.errMsg = err.Error()
	case quarantine:
		j.state = StateQuarantined
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	st := j.statusLocked()
	typ := "result"
	if st.State != StateDone {
		typ = "error"
	}
	j.events.append(Event{Type: typ, Status: &st})
	j.events.close()
}

// RequestCancel marks the job canceled and cancels a running execution.
// Returns false when the job is already terminal. Idempotent: a repeated
// cancel (client retry, or Drain's cancel-all racing a client DELETE) is
// acknowledged without re-closing cancelCh.
func (j *Job) RequestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCanceled, StateQuarantined:
		return false
	}
	if j.canceled {
		return true
	}
	j.canceled = true
	close(j.cancelCh)
	if j.cancel != nil {
		j.cancel()
		return true
	}
	if j.state == StateRunning {
		// Between attempts (backoff sleep): the worker observes cancelCh and
		// finalizes; nothing to do here.
		return true
	}
	// Still queued: finalize immediately, the worker will skip it.
	j.upload = nil
	j.state = StateCanceled
	j.finished = time.Now()
	j.errMsg = "canceled before start"
	st := j.statusLocked()
	j.events.append(Event{Type: "error", Status: &st})
	j.events.close()
	return true
}

// CancelRequested reports whether cancellation has been requested.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// sleep blocks for d or until the job is canceled, reporting whether the
// full backoff elapsed (false = canceled, abandon the retry).
func (j *Job) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-j.cancelCh:
		return false
	}
}

// Emit appends one per-epoch progress event to the job's stream. Executors
// call it as epochs complete — whether the run is local (the engine's
// epoch hook) or remote (a coordinator forwarding a worker's SSE stream).
func (j *Job) Emit(rec obs.EpochRecord) {
	r := rec
	j.events.append(Event{Type: "epoch", Epoch: &r})
}

// SetRecovered marks the job as restored from a durable journal with its
// persisted attempt count. Called before the job is requeued or
// resurfaced; never after execution has started.
func (j *Job) SetRecovered(attempts int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts = attempts
	j.recovered = true
}

// EventLog is a job's append-only event history with broadcast: SSE
// subscribers replay from any index and then block on the wake channel,
// which is closed and replaced on every append, so late subscribers see
// the full stream and live subscribers wake immediately.
type EventLog struct {
	mu        sync.Mutex
	requestID string
	events    []Event
	done      bool
	wake      chan struct{}
}

func newEventLog(requestID string) *EventLog {
	return &EventLog{requestID: requestID, wake: make(chan struct{})}
}

// append assigns the event's sequence number, stamps the job's request ID
// and wakes subscribers. Appending after close is dropped (the stream is
// sealed).
func (l *EventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	ev.Seq = len(l.events)
	if ev.RequestID == "" {
		ev.RequestID = l.requestID
	}
	l.events = append(l.events, ev)
	close(l.wake)
	l.wake = make(chan struct{})
}

// close seals the stream and wakes subscribers one last time. The wake
// channel is left closed (not replaced) so any subscriber that has drained
// the log wakes immediately, observes done, and exits instead of blocking
// on a channel that will never fire again.
func (l *EventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	close(l.wake)
}

// Since returns the events from index from onward, whether the stream is
// sealed, and the channel that will be closed on the next append/close.
func (l *EventLog) Since(from int) ([]Event, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var evs []Event
	if from < len(l.events) {
		evs = append(evs, l.events[from:]...)
	}
	return evs, l.done, l.wake
}

// EpochEvents counts the epoch events recorded so far — executors use it
// to decide whether a cache-served result still needs its trace replayed
// into the stream.
func (l *EventLog) EpochEvents() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Type == "epoch" {
			n++
		}
	}
	return n
}
