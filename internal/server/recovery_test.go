package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"sparseadapt/internal/fault"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// resultJSON canonicalizes a job result for byte-for-byte comparison
// across servers (the Trace field is excluded from JSON by design, so this
// is exactly the payload a client sees).
func resultJSON(t *testing.T, st sched.JobStatus) string {
	t.Helper()
	if st.Result == nil {
		t.Fatalf("job %s has no result", st.ID)
	}
	data, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRecoveryRequeuesInterruptedJobs is the crash-recovery contract: jobs
// accepted (journaled) but never executed — the daemon "died" with them
// queued — are re-queued on the next boot, run to completion, and produce
// results byte-for-byte identical to an uninterrupted run.
func TestRecoveryRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	reqs := []sched.JobRequest{
		{Mode: "static", Matrix: "R04", Scale: "test"},
		{Mode: "static", Matrix: "R04", Scale: "test", Seed: 99},
	}

	// Uninterrupted reference run on a plain server.
	_, ref := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	var want []string
	for _, req := range reqs {
		want = append(want, resultJSON(t, submitAndWait(t, ctx, ref, req)))
	}

	// "Crash": a durable server accepts the jobs but its worker pool never
	// starts, and the process state is simply abandoned — exactly what
	// kill -9 leaves behind: accepted records in the journal, no terminal
	// records.
	c1 := idleServer(t, server.Config{StoreDir: dir})
	for i, req := range reqs {
		st, err := c1.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st.State != sched.StateQueued {
			t.Fatalf("submit %d state = %q", i, st.State)
		}
	}

	// Reboot on the same journal.
	s2, c2 := startServer(t, server.Config{Sched: sched.Config{Workers: 2}, StoreDir: dir})
	if got := s2.Recovered(); got != len(reqs) {
		t.Fatalf("recovered %d jobs, want %d", got, len(reqs))
	}
	for i := range reqs {
		id := jobID(i + 1)
		final, err := c2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != sched.StateDone {
			t.Fatalf("%s ended %s: %s", id, final.State, final.Error)
		}
		if !final.Recovered {
			t.Errorf("%s does not carry the recovered flag", id)
		}
		if got := resultJSON(t, final); got != want[i] {
			t.Errorf("%s result differs from uninterrupted run:\n got %s\nwant %s", id, got, want[i])
		}
	}

	// New submissions must continue the ID sequence past every journaled
	// job, not collide with recovered ones.
	st, err := c2.Submit(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != jobID(len(reqs)+1) {
		t.Errorf("post-recovery submit got ID %s, want %s", st.ID, jobID(len(reqs)+1))
	}
}

func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// TestRecoveryResurfacesTerminalJobs: after a clean shutdown, finished
// jobs reappear with their persisted results and sealed event streams —
// a restart does not amnesia the job history.
func TestRecoveryResurfacesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	s1, c1 := startServer(t, server.Config{Sched: sched.Config{Workers: 1}, StoreDir: dir})
	first := submitAndWait(t, ctx, c1, sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test"})
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, c2 := startServer(t, server.Config{Sched: sched.Config{Workers: 1}, StoreDir: dir})
	if got := s2.Recovered(); got != 0 {
		t.Fatalf("clean shutdown left %d jobs to recover, want 0", got)
	}
	st, err := c2.Get(ctx, first.ID)
	if err != nil {
		t.Fatalf("get resurfaced job: %v", err)
	}
	if st.State != sched.StateDone || !st.Recovered {
		t.Fatalf("resurfaced job = state %s recovered %v, want done/true", st.State, st.Recovered)
	}
	if got := resultJSON(t, st); got != resultJSON(t, first) {
		t.Errorf("resurfaced result differs:\n got %s\nwant %s", got, resultJSON(t, first))
	}
	// The sealed event stream must replay a terminal event and end.
	final, err := c2.Wait(ctx, first.ID)
	if err != nil {
		t.Fatalf("wait on resurfaced job: %v", err)
	}
	if final.State != sched.StateDone {
		t.Errorf("resurfaced stream ended %s", final.State)
	}
}

// TestJournalFailureShedsSubmission: when the acceptance record cannot be
// committed, the client gets a 503 (with Retry-After) and the job is fully
// withdrawn — a job is durable if and only if the client saw 202.
func TestJournalFailureShedsSubmission(t *testing.T) {
	// journal-err=1 fails every journal write, including the acceptance
	// record (store.Open itself does not write, so New succeeds).
	c := idleServer(t, server.Config{
		StoreDir: t.TempDir(),
		Chaos:    fault.NewChaos(fault.ChaosSpec{JournalErr: 1, Seed: 1}),
	})
	_, err := c.Submit(context.Background(), sched.JobRequest{Matrix: "R04"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with broken journal = %v, want 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Error("journal-failure 503 must carry Retry-After")
	}
	jobs, err := c.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("withdrawn job still listed: %+v", jobs)
	}
}
