package sched

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
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
//
// A job that has ended keeps only what its status and event stream show:
// end drops the upload (string and parse) and the result's epoch trace,
// and seals the event log into its encoded SSE frames.
type Job struct {
	id        string
	requestID string
	created   time.Time
	// uploadBytes and uploadSHA256 stand for the request's matrix_market
	// upload in every status.
	uploadBytes  int
	uploadSHA256 string

	mu        sync.Mutex
	req       JobRequest // its MatrixMarket is dropped when the job ends
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

// newJob builds a queued job. retained, which may be nil, is the gauge its
// event log adds its sealed bytes to.
func newJob(id string, req JobRequest, upload *matrix.COO, requestID string, now time.Time, retained *obs.Gauge) *Job {
	j := &Job{id: id, req: req, requestID: requestID, created: now,
		upload: upload, state: StateQueued, cancelCh: make(chan struct{}),
		events: newEventLog(requestID, retained)}
	if req.MatrixMarket != "" {
		sum := sha256.Sum256([]byte(req.MatrixMarket))
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

// Request returns the validated job request. Until the job ends it
// includes the matrix_market upload, which the journal, the fingerprint
// and a coordinator's forwarding read; an ended job's request has none.
func (j *Job) Request() JobRequest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.req
}

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
	req := j.req
	req.MatrixMarket = ""
	return JobStatus{
		ID: j.id, State: j.state, Request: req,
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

// finish records the outcome of the job's last attempt. A canceled job
// that raced to completion stays canceled; quarantine marks a job whose
// retry budget is exhausted.
func (j *Job) finish(res *JobResult, cacheHit bool, err error, quarantine bool, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err == nil {
		j.end(StateDone, now, "", cacheHit, res)
		return
	}
	state := StateFailed
	switch {
	case j.canceled:
		state = StateCanceled
	case quarantine:
		state = StateQuarantined
	}
	j.end(state, now, err.Error(), false, nil)
}

// end moves the job to its terminal state, with j.mu held. It is the one
// place a job ends: the worker finishing it, a cancel while queued, and a
// journal restore. It drops what only a live job needs, the upload (string
// and parse) and the result's epoch trace, which the event stream carries
// and the engine cache entry keeps for replay; then it appends the
// terminal event and seals the event log.
func (j *Job) end(state string, finished time.Time, errMsg string, cacheHit bool, res *JobResult) {
	j.state = state
	j.finished = finished
	j.errMsg = errMsg
	j.cacheHit = cacheHit
	j.cancel = nil
	j.upload = nil
	j.req.MatrixMarket = ""
	if res != nil && res.Trace != nil {
		r := *res
		r.Trace = nil
		res = &r
	}
	j.result = res
	st := j.statusLocked()
	typ := "result"
	if state != StateDone {
		typ = "error"
	}
	j.events.append(Event{Type: typ, Status: &st})
	j.events.seal()
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
	j.end(StateCanceled, time.Now(), "canceled before start", false, nil)
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
//
// When the job ends the log is sealed: each event is encoded once into
// the frame the events endpoint sends, the frames are kept back to back
// in one byte slice, and the events themselves are released, so a
// finished job holds its stream as bytes rather than as an object graph.
type EventLog struct {
	mu        sync.Mutex
	requestID string
	events    []Event // nil once sealed
	done      bool
	wake      chan struct{}
	// frames holds a sealed log's SSE frames; frame i is
	// frames[offs[i]:offs[i+1]], empty for an event json.Marshal rejects.
	frames []byte
	offs   []int32
	// retained receives the sealed bytes (server_retained_bytes).
	retained *obs.Gauge
}

func newEventLog(requestID string, retained *obs.Gauge) *EventLog {
	return &EventLog{requestID: requestID, wake: make(chan struct{}), retained: retained}
}

// append assigns the event's sequence number, stamps the job's request ID
// and wakes subscribers. Appending after the stream is closed is dropped.
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

// seal closes the stream, wakes subscribers one last time, and replaces
// the events with their encoded frames. The wake channel is left closed
// (not replaced) so any subscriber that has drained the log wakes
// immediately, observes the end, and exits instead of blocking on a
// channel that will never fire again. The encoding runs outside the lock;
// meanwhile Frames encodes for itself, as for a live log.
func (l *EventLog) seal() {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	l.done = true
	close(l.wake)
	evs := l.events
	l.mu.Unlock()

	buf := framePool.Get().(*bytes.Buffer)
	defer framePool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	offs := make([]int32, 1, len(evs)+1)
	for i := range evs {
		appendFrame(buf, enc, &evs[i])
		offs = append(offs, int32(buf.Len()))
	}
	frames := bytes.Clone(buf.Bytes())

	l.mu.Lock()
	l.frames, l.offs, l.events = frames, offs, nil
	l.mu.Unlock()
	l.retained.Add(float64(len(frames) + 4*len(offs)))
}

// framePool recycles seal's encoding buffer.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// appendFrame appends ev's SSE frame, "event: <type>\nid: <seq>\ndata:
// <json>\n\n", to buf. An event json.Marshal rejects appends nothing and
// reports false.
func appendFrame(buf *bytes.Buffer, enc *json.Encoder, ev *Event) bool {
	mark := buf.Len()
	buf.WriteString("event: ")
	buf.WriteString(ev.Type)
	buf.WriteString("\nid: ")
	buf.WriteString(strconv.Itoa(ev.Seq))
	buf.WriteString("\ndata: ")
	// Encode writes json.Marshal's bytes and a newline, or nothing.
	if err := enc.Encode(ev); err != nil {
		buf.Truncate(mark)
		return false
	}
	buf.WriteByte('\n')
	return true
}

// sealedBytes is what a sealed log holds: its frames and their offsets (0
// while the log is live).
func (l *EventLog) sealedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.frames) + 4*len(l.offs))
}

// Frames returns the SSE frames of the events from index from (≥ 0) on,
// as the events endpoint writes them, and the index after the last event
// they hold. A sealed log returns a slice of its stream, which the caller
// must not modify; a live one encodes its tail. The frames stop before an
// event json.Marshal rejects. end reports that the reader is done: the
// stream is closed and holds nothing past next, or the event at next
// cannot be encoded. Otherwise wake is closed at the next append.
func (l *EventLog) Frames(from int) (frames []byte, next int, end bool, wake <-chan struct{}) {
	l.mu.Lock()
	if l.offs != nil {
		defer l.mu.Unlock()
		next = from
		for next < len(l.offs)-1 && l.offs[next] != l.offs[next+1] {
			next++
		}
		if next > from {
			frames = l.frames[l.offs[from]:l.offs[next]]
		}
		return frames, next, true, l.wake
	}
	var evs []Event
	if from < len(l.events) {
		evs = l.events[from:]
	}
	done, wake := l.done, l.wake
	l.mu.Unlock()

	// Appends only write past evs, so they are read safely unlocked.
	next = from
	if len(evs) > 0 {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range evs {
			if !appendFrame(&buf, enc, &evs[i]) {
				return buf.Bytes(), next, true, wake
			}
			next++
		}
		frames = buf.Bytes()
	}
	return frames, next, done, wake
}
