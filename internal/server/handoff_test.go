package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparseadapt/internal/fault"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server/client"
)

// The hand-off tests check where a job's matrix comes from: the door's
// parse of an upload travels with the accepted job to its first attempt,
// and no job holds it once it has ended, so a daemon retaining a window of
// finished job records retains none of their matrices.

// handoffUpload is a seeded 48×48 uniform MatrixMarket body.
func handoffUpload(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := matrix.WriteMatrixMarket(&b, matrix.Uniform(rand.New(rand.NewSource(9)), 48, 48, 200)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// handoffServer builds a Server on an httptest listener, its worker pool
// started only when start is set.
func handoffServer(t *testing.T, cfg Config, start bool) (*Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if start {
		startPool(t, s)
	}
	return s, client.New(ts.URL)
}

// startPool starts s's worker pool and drains it when the test ends.
func startPool(t *testing.T, s *Server) {
	t.Helper()
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test teardown
	})
}

// runUpload submits req and waits for it to end.
func runUpload(t *testing.T, ctx context.Context, c *client.Client, req sched.JobRequest) sched.JobStatus {
	t.Helper()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone || final.Result == nil {
		t.Fatalf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return final
}

// TestUploadParseCarriedAndDropped: a queued upload job holds the door's
// parse; a coordinator's job, which runs elsewhere, holds none; and a job
// holds none once it has finished, been served from the cache without
// running, or been canceled while queued.
func TestUploadParseCarriedAndDropped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	mm := handoffUpload(t)
	req := sched.JobRequest{Mode: sched.ModeStatic, Kernel: "spmspv", MatrixMarket: mm}

	idle, c := handoffServer(t, Config{}, false)
	carried, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := idle.sch.Lookup(carried.ID).TakeUpload(); !sameCOO(got, mustParse(t, mm)) {
		t.Error("queued upload job does not hold the door's parse")
	}
	queued, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Cancel(ctx, queued.ID); err != nil || st.State != sched.StateCanceled {
		t.Fatalf("cancel of a queued job: %v (state %s)", err, st.State)
	}
	if idle.sch.Lookup(queued.ID).TakeUpload() != nil {
		t.Error("job canceled while queued still holds its parse")
	}

	remote, rc := handoffServer(t, Config{Exec: func(context.Context, *sched.Job, int) (*sched.JobResult, bool, error) {
		return &sched.JobResult{}, false, nil
	}}, false)
	placed, err := rc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if remote.sch.Lookup(placed.ID).TakeUpload() != nil {
		t.Error("a server whose jobs run elsewhere keeps the door's parse")
	}

	s, c := handoffServer(t, Config{Sched: sched.Config{Workers: 1}}, true)
	done := runUpload(t, ctx, c, req)
	if done.CacheHit {
		t.Fatal("first run of the upload was a cache hit")
	}
	if s.sch.Lookup(done.ID).TakeUpload() != nil {
		t.Error("finished upload job still holds its parse")
	}
	hit := runUpload(t, ctx, c, req)
	if !hit.CacheHit {
		t.Fatal("identical resubmission was not served from the cache")
	}
	if s.sch.Lookup(hit.ID).TakeUpload() != nil {
		t.Error("cache-hit upload job still holds its unused parse")
	}
}

// TestChaosKillAfterTakeReparses: a chaos mid-epoch kill fires while the
// first attempt runs, after it took the door's parse, so the retry gets
// none and parses the upload string again. Its result must equal a clean
// run's byte for byte.
func TestChaosKillAfterTakeReparses(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := sched.JobRequest{Mode: sched.ModeStatic, Kernel: "spmspm", MatrixMarket: handoffUpload(t)}

	// A seed that kills job-000001 at its first epoch on attempt 1 and
	// spares attempt 2.
	spec := fault.ChaosSpec{KillEpoch: 0.5}
	for spec.Seed = 1; ; spec.Seed++ {
		if spec.Seed > 5000 {
			t.Fatal("no suitable chaos seed in 5000")
		}
		probe := fault.NewChaos(spec)
		if e, ok := probe.KillAtEpoch("job-000001", 1); !ok || e != 1 {
			continue
		}
		if _, ok := probe.KillAtEpoch("job-000001", 2); !ok {
			break
		}
	}

	_, ref := handoffServer(t, Config{Sched: sched.Config{Workers: 1}}, true)
	want := runUpload(t, ctx, ref, req)

	s, c := handoffServer(t, Config{
		Sched: sched.Config{
			Workers: 1, MaxAttempts: 3,
			RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
			BreakerThreshold: 2,
		},
		Chaos: fault.NewChaos(spec),
	}, true)
	got := runUpload(t, ctx, c, req)
	if got.Attempts != 2 || got.CacheHit {
		t.Fatalf("attempts = %d, cache hit %v; want 2 computed attempts (killed once, then clean)", got.Attempts, got.CacheHit)
	}
	if a, b := marshal(t, got.Result), marshal(t, want.Result); a != b {
		t.Errorf("retried upload job differs from a clean run:\n got %s\nwant %s", a, b)
	}
	if s.sch.Lookup(got.ID).TakeUpload() != nil {
		t.Error("retried upload job still holds a parse")
	}
}

// TestQueuedParsesBounded fills the queue with the uploads whose parse
// outgrows their text the most: symmetric pattern bodies of "2 1" lines,
// 5 JSON bytes each, mirrored into two 24-byte entries, at the body cap.
// No queued job may keep a parse larger than the cap, so none of them
// keeps one, while a small upload in the same queue keeps its. Each
// dropped job parses its string when it runs and ends as a job that
// carried its parse does.
func TestQueuedParsesBounded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const maxBody, depth = 64 << 10, 4
	big := maxSymmetricPattern(t, maxBody)
	small := sched.JobRequest{Mode: sched.ModeStatic, Kernel: "spmspv", MatrixMarket: handoffUpload(t)}
	if n := parseBytes(mustParse(t, big.MatrixMarket)); n <= maxBody {
		t.Fatalf("maximal symmetric pattern parse = %d bytes, want more than the %d-byte cap", n, maxBody)
	}

	s, c := handoffServer(t, Config{MaxBodyBytes: maxBody, Sched: sched.Config{Workers: 1, QueueDepth: depth}}, false)
	ids := make([]string, depth)
	for i := range ids {
		req := big
		if i == depth-1 {
			req = small
		}
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	_, err := c.Submit(ctx, big)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to a full queue: %v, want 429", err)
	}
	var kept int64
	for i, id := range ids {
		m := s.sch.Lookup(id).TakeUpload()
		if m != nil {
			kept += parseBytes(m)
		}
		switch {
		case i < depth-1 && m != nil:
			t.Errorf("queued job %s keeps a %d-byte parse of a %d-byte body cap", id, parseBytes(m), maxBody)
		case i == depth-1 && !sameCOO(m, mustParse(t, small.MatrixMarket)):
			t.Errorf("queued job %s on a small upload does not keep the door's parse", id)
		}
	}
	if kept > depth*maxBody {
		t.Errorf("queued jobs keep %d bytes of parses, want at most queue x max-body = %d", kept, depth*maxBody)
	}

	_, ref := handoffServer(t, Config{Sched: sched.Config{Workers: 1}}, true)
	want := runUpload(t, ctx, ref, big)
	startPool(t, s)
	for i, id := range ids {
		final, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != sched.StateDone || final.Result == nil {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
		if i < depth-1 && marshal(t, final.Result) != marshal(t, want.Result) {
			t.Errorf("job %s, which parsed its upload when it ran, differs from one that carried the door's parse", id)
		}
	}
}

// maxSymmetricPattern is a static job on a 2×2 symmetric pattern upload of
// "2 1" lines whose JSON request fills limit bytes as nearly as whole
// lines allow.
func maxSymmetricPattern(t *testing.T, limit int) sched.JobRequest {
	t.Helper()
	build := func(n int) sched.JobRequest {
		mm := fmt.Sprintf("%%%%MatrixMarket matrix coordinate pattern symmetric\n2 2 %d\n", n) + strings.Repeat("2 1\n", n)
		return sched.JobRequest{Mode: sched.ModeStatic, Kernel: "spmspv", MatrixMarket: mm}
	}
	for n := limit / 5; n > 0; n-- {
		if req := build(n); len(marshal(t, req)) <= limit {
			return req
		}
	}
	t.Fatalf("no symmetric pattern request fits %d bytes", limit)
	return sched.JobRequest{}
}

// mustParse parses mm or fails the test.
func mustParse(t *testing.T, mm string) *matrix.COO {
	t.Helper()
	m, err := matrix.ParseMatrixMarket(mm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
