package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sparseadapt/internal/sched"
)

// shedServer rejects the first n submissions with status and Retry-After,
// then accepts.
func shedServer(t *testing.T, n int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write([]byte(`{"error":"shed"}`)) //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-000001","state":"queued"}`)) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func TestSubmitRetriesTransient(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		ts, calls := shedServer(t, 2, status, "")
		c := New(ts.URL)
		c.Retry = RetryPolicy{Max: 3, BaseWait: time.Millisecond, MaxWait: 5 * time.Millisecond}
		st, err := c.Submit(context.Background(), sched.JobRequest{})
		if err != nil {
			t.Fatalf("status %d: submit after retries: %v", status, err)
		}
		if st.ID != "job-000001" || calls.Load() != 3 {
			t.Errorf("status %d: got id=%q after %d calls, want job-000001 after 3", status, st.ID, calls.Load())
		}
	}
}

// TestSubmitHonorsRetryAfterCap: a server-suggested wait is used but capped
// by MaxWait, so a pathological hint cannot stall the client.
func TestSubmitHonorsRetryAfterCap(t *testing.T) {
	ts, calls := shedServer(t, 1, http.StatusTooManyRequests, "60")
	c := New(ts.URL)
	c.Retry = RetryPolicy{Max: 2, BaseWait: time.Millisecond, MaxWait: 20 * time.Millisecond}
	begin := time.Now()
	if _, err := c.Submit(context.Background(), sched.JobRequest{}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("60s hint was not capped: took %s", elapsed)
	}
	if calls.Load() != 2 {
		t.Errorf("made %d calls, want 2", calls.Load())
	}
}

// TestSubmitZeroPolicySingleShot: the zero value keeps the historical
// fail-fast behavior.
func TestSubmitZeroPolicySingleShot(t *testing.T) {
	ts, calls := shedServer(t, 10, http.StatusTooManyRequests, "1")
	c := New(ts.URL)
	_, err := c.Submit(context.Background(), sched.JobRequest{})
	if err == nil {
		t.Fatal("zero-policy submit to a shedding server succeeded")
	}
	if calls.Load() != 1 {
		t.Errorf("made %d calls, want 1 (no retry)", calls.Load())
	}
	ae, ok := transient(err)
	if !ok || ae.RetryAfter != time.Second {
		t.Errorf("error %v: transient=%v retryAfter=%v, want true/1s", err, ok, ae.RetryAfter)
	}
}

// TestSubmitNoRetryOnClientError: 4xx that is not pressure (bad request)
// must never be retried, whatever the policy says.
func TestSubmitNoRetryOnClientError(t *testing.T) {
	ts, calls := shedServer(t, 10, http.StatusBadRequest, "")
	c := New(ts.URL)
	c.Retry = RetryPolicy{Max: 5, BaseWait: time.Millisecond}
	if _, err := c.Submit(context.Background(), sched.JobRequest{}); err == nil {
		t.Fatal("400 submit succeeded")
	}
	if calls.Load() != 1 {
		t.Errorf("made %d calls, want 1 (400 is not transient)", calls.Load())
	}
}

func TestRetryPolicyWait(t *testing.T) {
	p := RetryPolicy{BaseWait: 100 * time.Millisecond, MaxWait: time.Second}
	if got := p.wait(0, 0); got != 100*time.Millisecond {
		t.Errorf("wait(0) = %v", got)
	}
	if got := p.wait(2, 0); got != 400*time.Millisecond {
		t.Errorf("wait(2) = %v", got)
	}
	if got := p.wait(10, 0); got != time.Second {
		t.Errorf("wait(10) = %v, want the cap", got)
	}
	if got := p.wait(0, 300*time.Millisecond); got != 300*time.Millisecond {
		t.Errorf("wait with hint = %v, want the hint", got)
	}
	if got := p.wait(0, time.Hour); got != time.Second {
		t.Errorf("wait with huge hint = %v, want the cap", got)
	}
	if got := (RetryPolicy{}).wait(0, 0); got != 500*time.Millisecond {
		t.Errorf("zero-policy wait = %v, want the 500ms default", got)
	}
}

// TestSubmitWithRequestIDHeader: the explicit request id travels as
// X-Request-ID; plain Submit sends none.
func TestSubmitWithRequestIDHeader(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Request-ID"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-000001","state":"queued","request_id":"rid-9"}`)) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	st, err := c.SubmitWithRequestID(context.Background(), sched.JobRequest{}, "rid-9")
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != "rid-9" || st.RequestID != "rid-9" {
		t.Errorf("header=%q status.RequestID=%q, want rid-9 in both", got.Load(), st.RequestID)
	}
	if _, err := c.Submit(context.Background(), sched.JobRequest{}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "" {
		t.Errorf("plain Submit sent X-Request-ID %q, want none", got.Load())
	}
}

// TestStreamFromSendsLastEventID: resuming at sequence n asks the server
// to replay from n by sending Last-Event-ID n-1.
func TestStreamFromSendsLastEventID(t *testing.T) {
	var header atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte("event: state\nid: 5\ndata: {\"seq\":5,\"type\":\"state\",\"state\":\"done\"}\n\n")) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	var seqs []int
	err := New(ts.URL).StreamFrom(context.Background(), "job-000001", 5, func(ev sched.Event) error {
		seqs = append(seqs, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if header.Load() != "4" {
		t.Errorf("Last-Event-ID = %q, want 4", header.Load())
	}
	if len(seqs) != 1 || seqs[0] != 5 {
		t.Errorf("received seqs %v, want [5]", seqs)
	}
}

// TestStreamStallDetector: a wedged stream (no bytes at all) trips the
// watchdog with ErrStreamStalled, while a stream that is quiet except for
// keepalive comments stays alive until its real event arrives.
func TestStreamStallDetector(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // no bytes, ever
	}))
	t.Cleanup(hang.Close)
	c := New(hang.URL)
	c.StallTimeout = 100 * time.Millisecond
	begin := time.Now()
	err := c.Stream(context.Background(), "job-000001", func(sched.Event) error { return nil })
	if !errors.Is(err, ErrStreamStalled) {
		t.Fatalf("wedged stream returned %v, want ErrStreamStalled", err)
	}
	if time.Since(begin) > 5*time.Second {
		t.Errorf("watchdog took %s to fire", time.Since(begin))
	}

	// Keepalive comments are bytes: they must feed the watchdog.
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		fl.Flush()
		for i := 0; i < 6; i++ {
			time.Sleep(50 * time.Millisecond)
			w.Write([]byte(": keepalive\n\n")) //nolint:errcheck
			fl.Flush()
		}
		w.Write([]byte("event: state\nid: 0\ndata: {\"seq\":0,\"type\":\"state\",\"state\":\"done\"}\n\n")) //nolint:errcheck
		fl.Flush()
	}))
	t.Cleanup(alive.Close)
	c2 := New(alive.URL)
	c2.StallTimeout = 150 * time.Millisecond // > keepalive cadence, < total run
	events := 0
	if err := c2.Stream(context.Background(), "job-000001", func(sched.Event) error {
		events++
		return nil
	}); err != nil {
		t.Fatalf("keepalive-fed stream failed: %v", err)
	}
	if events != 1 {
		t.Errorf("received %d events, want 1", events)
	}
}
