package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparseadapt/internal/fault"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
)

// TestJournalFailureKeepsQueueConsistent submits against a live worker
// pool whose journal rejects every write. The job must never reach the
// queue: no worker may dequeue it (running a job the client was told was
// not accepted) and the queue-depth gauge must stay balanced at zero
// rather than going negative from an unmatched decrement.
func TestJournalFailureKeepsQueueConsistent(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Sched:    sched.Config{Workers: 2},
		StoreDir: t.TempDir(),
		Chaos:    fault.NewChaos(fault.ChaosSpec{JournalErr: 1, Seed: 1}),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // test teardown
	}()

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"matrix":"R04"}`))
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit with broken journal = %d, want 503", rr.Code)
	}

	// Give a worker a moment to (incorrectly) pick the job up if it was
	// ever enqueued, then check nothing moved.
	time.Sleep(50 * time.Millisecond)
	if n := s.sch.QueueLen(); n != 0 {
		t.Errorf("withdrawn job left %d entries in the queue", n)
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "server_queue_depth" && m.Value != 0 {
			t.Errorf("server_queue_depth = %v after withdrawn submission, want 0", m.Value)
		}
	}
	if jobs := s.sch.List(); len(jobs) != 0 {
		t.Errorf("withdrawn job still tracked (%d jobs)", len(jobs))
	}
}

// TestRequestIDThreading: a client-supplied X-Request-ID must be echoed in
// the response header, surfaced in the job status, and stamped on every
// SSE event; an invalid one must be rejected at the door.
func TestRequestIDThreading(t *testing.T) {
	s, err := New(Config{Sched: sched.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // test teardown
	}()

	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"matrix":"R04"}`))
	req.Header.Set("X-Request-ID", "trace-me-42")
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("response X-Request-ID = %q, want trace-me-42", got)
	}
	if !strings.Contains(rr.Body.String(), `"request_id": "trace-me-42"`) {
		t.Errorf("submit body lacks request_id: %s", rr.Body)
	}

	// A generated ID appears when the client sends none.
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"matrix":"R04"}`)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202: %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated X-Request-ID = %q, want 16 hex chars", got)
	}

	// Invalid IDs are a 400, not silently replaced.
	for _, bad := range []string{strings.Repeat("x", 65), "has space", "ctrl\x01char", "ünïcode"} {
		rr = httptest.NewRecorder()
		req = httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"matrix":"R04"}`))
		req.Header.Set("X-Request-ID", bad)
		s.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("submit with X-Request-ID %q = %d, want 400", bad, rr.Code)
		}
	}
}
