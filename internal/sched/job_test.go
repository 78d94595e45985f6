package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"sparseadapt/internal/matrix"
)

// TestRequestCancelIdempotent repeats a cancel against a running job — the
// shape of a client retrying DELETE, or Drain's deadline cancel-all racing
// a client cancel. A running job stays StateRunning after the first
// cancel, so a non-idempotent close of cancelCh would panic here.
func TestRequestCancelIdempotent(t *testing.T) {
	j := newJob("job-000001", JobRequest{}, nil, "rid-1", time.Now())
	if got := j.start(func() {}, time.Now()); got != 1 {
		t.Fatalf("start = attempt %d, want 1", got)
	}
	if !j.RequestCancel() {
		t.Fatal("first cancel of a running job must be acknowledged")
	}
	if !j.RequestCancel() {
		t.Fatal("second cancel of a still-running job must be acknowledged")
	}
	// Once the worker finalizes the job, further cancels report terminal.
	j.finish(nil, false, context.Canceled, false, time.Now())
	if j.RequestCancel() {
		t.Error("cancel of a terminal job must report false")
	}
}

func TestEventLogReplayAndSeal(t *testing.T) {
	l := newEventLog("rid-7")
	l.append(Event{Type: "state", State: StateQueued})
	l.append(Event{Type: "epoch"})
	evs, done, _ := l.Since(0)
	if len(evs) != 2 || done {
		t.Fatalf("Since(0) = %d events done=%v, want 2 false", len(evs), done)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("sequence numbers = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	for _, ev := range evs {
		if ev.RequestID != "rid-7" {
			t.Errorf("event %d request ID = %q, want rid-7", ev.Seq, ev.RequestID)
		}
	}
	l.close()
	// The post-close wake channel must be closed so drained subscribers
	// exit instead of blocking forever.
	_, done, wake := l.Since(2)
	if !done {
		t.Fatal("closed log must report done")
	}
	select {
	case <-wake:
	default:
		t.Fatal("wake channel after close must be closed")
	}
	l.append(Event{Type: "epoch"}) // dropped: stream is sealed
	if evs, _, _ := l.Since(0); len(evs) != 2 {
		t.Errorf("append after close must be dropped, log has %d events", len(evs))
	}
}

// TestSchedulerLifecycle drives the scheduler with a stub executor through
// submit → execute → finish, checking two-phase admission, hook firing and
// queue bookkeeping without any HTTP or journal in the loop.
func TestSchedulerLifecycle(t *testing.T) {
	var finished []JobStatus
	done := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 2}, nil, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
		return &JobResult{Epochs: 3}, false, nil
	}, Hooks{Finished: func(st JobStatus) {
		finished = append(finished, st)
		done <- struct{}{}
	}})
	j, err := s.Reserve(JobRequest{}, nil, "rid-a", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if j.RequestID() != "rid-a" {
		t.Errorf("RequestID = %q, want rid-a", j.RequestID())
	}
	if err := s.Commit(j); err != nil {
		t.Fatal(err)
	}
	s.Start()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	if len(finished) != 1 || finished[0].State != StateDone {
		t.Fatalf("Finished hook = %+v, want one done status", finished)
	}
	if finished[0].RequestID != "rid-a" {
		t.Errorf("terminal status request ID = %q, want rid-a", finished[0].RequestID)
	}
	st := s.Lookup(j.ID()).Status()
	if st.State != StateDone || st.Result == nil || st.Result.Epochs != 3 {
		t.Fatalf("job status = %+v, want done with result", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRetryAndQuarantine: a permanently failing executor must be
// retried exactly MaxAttempts times and then quarantined, with the
// AttemptFailed hook seeing every non-final failure.
func TestSchedulerRetryAndQuarantine(t *testing.T) {
	attempts := 0
	var retries []int
	done := make(chan JobStatus, 1)
	s2 := New(Config{
		Workers: 1, MaxAttempts: 3,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond,
	}, nil, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
		attempts++
		return nil, false, errTest
	}, Hooks{
		AttemptFailed: func(j *Job, attempt int, err error) { retries = append(retries, attempt) },
		Finished:      func(st JobStatus) { done <- st },
	})
	j, err := s2.Reserve(JobRequest{}, nil, "", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(j); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	var st JobStatus
	select {
	case st = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not reach a terminal state")
	}
	if st.State != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st.State)
	}
	if attempts != 3 {
		t.Errorf("executor ran %d times, want 3", attempts)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Errorf("AttemptFailed attempts = %v, want [1 2]", retries)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s2.Drain(ctx) //nolint:errcheck // teardown
}

// TestReserveQueueFullAndWithdraw: reserved slots count against admission,
// and Withdraw releases both the slot and the job record.
func TestReserveQueueFullAndWithdraw(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1}, nil, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
		return &JobResult{}, false, nil
	}, Hooks{})
	// Worker pool not started: committed jobs stay queued.
	j1, err := s.Reserve(JobRequest{}, nil, "", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve(JobRequest{}, nil, "", time.Now()); err != ErrQueueFull {
		t.Fatalf("second Reserve = %v, want ErrQueueFull", err)
	}
	s.Withdraw(j1)
	if s.Lookup(j1.ID()) != nil {
		t.Error("withdrawn job still tracked")
	}
	if j1.Status().State != StateCanceled {
		t.Errorf("withdrawn job state = %s, want canceled", j1.Status().State)
	}
	// The slot is free again.
	j2, err := s.Reserve(JobRequest{}, nil, "", time.Now())
	if err != nil {
		t.Fatalf("Reserve after Withdraw = %v", err)
	}
	if err := s.Commit(j2); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueLen(); got != 1 {
		t.Errorf("QueueLen = %d, want 1", got)
	}
}

var errTest = errForTest{}

type errForTest struct{}

func (errForTest) Error() string { return "injected test failure" }

// TestStatusEchoesUploadDigest: a status carries the request without its
// upload, plus the upload's size and SHA-256, while the job keeps the
// full request for the journal, the fingerprint and forwarding.
func TestStatusEchoesUploadDigest(t *testing.T) {
	const mm = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"
	req := JobRequest{Mode: ModeStatic, MatrixMarket: mm}
	j := newJob("job-000001", req, nil, "rid-1", time.Now())
	if j.Request() != req {
		t.Fatalf("job request = %+v, want the full request", j.Request())
	}
	st := j.Status()
	want := req
	want.MatrixMarket = ""
	if st.Request != want {
		t.Errorf("status request = %+v, want %+v", st.Request, want)
	}
	sum := sha256.Sum256([]byte(mm))
	if st.UploadBytes != len(mm) || st.UploadSHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("status upload = %d bytes %q, want %d bytes %x", st.UploadBytes, st.UploadSHA256, len(mm), sum)
	}
	if d := newJob("job-000002", JobRequest{Matrix: "R04"}, nil, "rid-2", time.Now()).Status(); d.UploadBytes != 0 || d.UploadSHA256 != "" {
		t.Errorf("dataset job status carries an upload: %d bytes %q", d.UploadBytes, d.UploadSHA256)
	}
}

// TestTakeUploadOnce: the door's parse goes to the first attempt that
// takes it and to no later one, and a job that ends, done or canceled
// while queued, holds it no longer.
func TestTakeUploadOnce(t *testing.T) {
	upload := matrix.NewCOO(2, 2)
	taken := newJob("job-000001", JobRequest{}, upload, "", time.Now())
	if got := taken.TakeUpload(); got != upload {
		t.Fatalf("first TakeUpload = %p, want the door's parse %p", got, upload)
	}
	if got := taken.TakeUpload(); got != nil {
		t.Errorf("second TakeUpload = %p, want nil", got)
	}
	done := newJob("job-000002", JobRequest{}, upload, "", time.Now())
	done.start(func() {}, time.Now())
	done.finish(&JobResult{}, true, nil, false, time.Now())
	if done.TakeUpload() != nil {
		t.Error("finished job still holds its parse")
	}
	queued := newJob("job-000003", JobRequest{}, upload, "", time.Now())
	if !queued.RequestCancel() {
		t.Fatal("cancel of a queued job refused")
	}
	if queued.TakeUpload() != nil {
		t.Error("job canceled while queued still holds its parse")
	}
}
