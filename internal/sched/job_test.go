package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
)

// TestRequestCancelIdempotent repeats a cancel against a running job — the
// shape of a client retrying DELETE, or Drain's deadline cancel-all racing
// a client cancel. A running job stays StateRunning after the first
// cancel, so a non-idempotent close of cancelCh would panic here.
func TestRequestCancelIdempotent(t *testing.T) {
	j := newJob("job-000001", JobRequest{}, nil, "rid-1", time.Now(), nil)
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

// TestEventLogReplayAndSeal: a live log encodes its events as SSE frames
// from any index, a sealed log returns the same bytes from its stream, and
// neither returns anything past an event json.Marshal rejects.
func TestEventLogReplayAndSeal(t *testing.T) {
	l := newEventLog("rid-7", nil)
	l.append(Event{Type: "state", State: StateQueued})
	l.append(Event{Type: "epoch", Epoch: &obs.EpochRecord{Epoch: 0, Config: "a"}})
	frames, next, end, _ := l.Frames(0)
	if next != 2 || end {
		t.Fatalf("live Frames(0) = next %d end %v, want 2 false", next, end)
	}
	want := "event: state\nid: 0\ndata: {\"seq\":0,\"type\":\"state\",\"request_id\":\"rid-7\",\"state\":\"queued\"}\n\n" +
		"event: epoch\nid: 1\ndata: {\"seq\":1,\"type\":\"epoch\",\"request_id\":\"rid-7\",\"epoch\":{\"epoch\":0,\"start_sec\":0,\"dur_sec\":0,\"energy_j\":0,\"fp_ops\":0,\"config\":\"a\"}}\n\n"
	if string(frames) != want {
		t.Fatalf("live frames =\n%q\nwant\n%q", frames, want)
	}
	// An event json.Marshal rejects ends what a read returns.
	l.append(Event{Type: "epoch", Epoch: &obs.EpochRecord{Epoch: 1, DurSec: math.NaN()}})
	l.append(Event{Type: "epoch", Epoch: &obs.EpochRecord{Epoch: 2}})
	live := map[int]string{}
	for from := 0; from <= 5; from++ {
		frames, next, end, _ := l.Frames(from)
		live[from] = string(frames)
		if wantEnd := from <= 2; end != wantEnd {
			t.Errorf("live Frames(%d) end = %v, want %v", from, end, wantEnd)
		}
		if wantNext := map[int]int{0: 2, 1: 2, 2: 2, 3: 4}[from]; from <= 3 && next != wantNext {
			t.Errorf("live Frames(%d) next = %d, want %d", from, next, wantNext)
		}
	}
	if live[0] != want {
		t.Errorf("live Frames(0) past the rejected event =\n%q\nwant\n%q", live[0], want)
	}

	l.seal()
	if l.events != nil || l.offs == nil {
		t.Fatal("sealed log still holds its events")
	}
	if l.sealedBytes() != int64(len(l.frames)+4*len(l.offs)) || l.sealedBytes() == 0 {
		t.Errorf("bytes = %d for %d frame bytes and %d offsets", l.sealedBytes(), len(l.frames), len(l.offs))
	}
	for from := 0; from <= 5; from++ {
		frames, next, end, wake := l.Frames(from)
		if string(frames) != live[from] {
			t.Errorf("sealed Frames(%d) =\n%q\nwant the live log's\n%q", from, frames, live[from])
		}
		if !end {
			t.Errorf("sealed Frames(%d) end = false", from)
		}
		if wantNext := map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 5}[from]; next != wantNext {
			t.Errorf("sealed Frames(%d) next = %d, want %d", from, next, wantNext)
		}
		// The post-seal wake channel must be closed so drained subscribers
		// exit instead of blocking forever.
		select {
		case <-wake:
		default:
			t.Fatal("wake channel after seal must be closed")
		}
	}
	l.append(Event{Type: "epoch"}) // dropped: stream is sealed
	if frames, next, _, _ := l.Frames(4); next != 4 || len(frames) != 0 {
		t.Errorf("append after seal must be dropped, Frames(4) = %d bytes, next %d", len(frames), next)
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
	j := newJob("job-000001", req, nil, "rid-1", time.Now(), nil)
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
	if d := newJob("job-000002", JobRequest{Matrix: "R04"}, nil, "rid-2", time.Now(), nil).Status(); d.UploadBytes != 0 || d.UploadSHA256 != "" {
		t.Errorf("dataset job status carries an upload: %d bytes %q", d.UploadBytes, d.UploadSHA256)
	}
}

// TestTakeUploadOnce: the door's parse goes to the first attempt that
// takes it and to no later one, and a job that ends, done or canceled
// while queued, holds it no longer.
func TestTakeUploadOnce(t *testing.T) {
	upload := matrix.NewCOO(2, 2)
	taken := newJob("job-000001", JobRequest{}, upload, "", time.Now(), nil)
	if got := taken.TakeUpload(); got != upload {
		t.Fatalf("first TakeUpload = %p, want the door's parse %p", got, upload)
	}
	if got := taken.TakeUpload(); got != nil {
		t.Errorf("second TakeUpload = %p, want nil", got)
	}
	done := newJob("job-000002", JobRequest{}, upload, "", time.Now(), nil)
	done.start(func() {}, time.Now())
	done.finish(&JobResult{}, true, nil, false, time.Now())
	if done.TakeUpload() != nil {
		t.Error("finished job still holds its parse")
	}
	queued := newJob("job-000003", JobRequest{}, upload, "", time.Now(), nil)
	if !queued.RequestCancel() {
		t.Fatal("cancel of a queued job refused")
	}
	if queued.TakeUpload() != nil {
		t.Error("job canceled while queued still holds its parse")
	}
}

// TestFinishedJobKeepsNoUpload ends an upload job on every path a job
// ends by and checks that it keeps neither the upload string nor its
// parse nor the result's epoch trace, that its status still names the
// upload's size and digest, and that its event log is sealed.
func TestFinishedJobKeepsNoUpload(t *testing.T) {
	const mm = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"
	req := JobRequest{Mode: ModeStatic, MatrixMarket: mm}
	trace := []obs.EpochRecord{{Epoch: 0, Config: "a"}}
	result := &JobResult{Epochs: 1, Trace: trace}
	blocked := make(chan struct{})
	cases := []struct {
		name, state string
		exec        ExecFunc
	}{
		{"done", StateDone, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
			return result, false, nil
		}},
		{"failed", StateFailed, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
			return nil, false, context.DeadlineExceeded
		}},
		{"quarantined", StateQuarantined, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
			return nil, false, errTest
		}},
		{"canceled while running", StateCanceled, func(ctx context.Context, j *Job, attempt int) (*JobResult, bool, error) {
			close(blocked)
			<-ctx.Done()
			return nil, false, ctx.Err()
		}},
	}
	check := func(name string, j *Job, want JobStatus) {
		t.Helper()
		st := j.Status()
		if !st.Terminal() {
			t.Fatalf("%s: state %s, want terminal", name, st.State)
		}
		if j.Request().MatrixMarket != "" {
			t.Errorf("%s: ended job keeps its upload string", name)
		}
		if j.TakeUpload() != nil {
			t.Errorf("%s: ended job keeps its upload parse", name)
		}
		if st.UploadBytes != want.UploadBytes || st.UploadSHA256 != want.UploadSHA256 || st.Request != want.Request {
			t.Errorf("%s: status upload = %d %q %+v, want %d %q %+v", name,
				st.UploadBytes, st.UploadSHA256, st.Request, want.UploadBytes, want.UploadSHA256, want.Request)
		}
		if st.Result != nil && st.Result.Trace != nil {
			t.Errorf("%s: ended job keeps its result's trace", name)
		}
		if j.events.events != nil || j.events.offs == nil {
			t.Errorf("%s: event log not sealed", name)
		}
	}

	for _, tc := range cases {
		done := make(chan JobStatus, 1)
		s := New(Config{Workers: 1, MaxAttempts: 1}, nil, tc.exec, Hooks{Finished: func(st JobStatus) { done <- st }})
		j, err := s.Reserve(req, matrix.NewCOO(2, 2), "", time.Now())
		if err != nil {
			t.Fatal(err)
		}
		want := j.Status()
		if err := s.Commit(j); err != nil {
			t.Fatal(err)
		}
		s.Start()
		if tc.state == StateCanceled {
			select {
			case <-blocked:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: job did not start", tc.name)
			}
			j.RequestCancel()
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: job did not end", tc.name)
		}
		if st := j.Status(); st.State != tc.state {
			t.Fatalf("%s: state %s, want %s", tc.name, st.State, tc.state)
		}
		check(tc.name, j, want)
		if st := j.Status(); tc.state == StateDone && (st.Result == nil || st.Result.Epochs != 1) {
			t.Errorf("done: result = %+v, want the executor's", st.Result)
		}
		if result.Trace == nil {
			t.Fatal("ending the job dropped the trace from the executor's result")
		}
		s.Drain(context.Background()) //nolint:errcheck // teardown
	}

	s := New(Config{}, nil, nil, Hooks{})
	queued, err := s.Reserve(req, matrix.NewCOO(2, 2), "", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	want := queued.Status()
	queued.RequestCancel()
	check("canceled while queued", queued, want)

	restored := s.Restore("job-000009", req, "", time.Now())
	want = restored.Status()
	s.RestoreTerminal(restored, StateDone, time.Now(), "", true, &JobResult{Epochs: 1, Trace: trace})
	check("restored terminal", restored, want)
}
