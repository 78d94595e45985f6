package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparseadapt/internal/engine"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
	"sparseadapt/internal/server/store"
)

// TestChaosMidEpochKillRetriesByteIdentical: a job killed mid-epoch on its
// first attempt is retried and its final result is byte-for-byte identical
// to an uninterrupted run — the acceptance bar for the whole retry path.
func TestChaosMidEpochKillRetriesByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test"}

	// Chaos decisions are pure hashes of (seed, job, attempt), so scan for
	// a seed that kills job-000001 early on attempt 1 and spares attempt 2
	// — a deterministic "die mid-run once, then recover" script.
	spec := fault.ChaosSpec{KillEpoch: 0.5}
	for s := int64(1); ; s++ {
		if s > 5000 {
			t.Fatal("no suitable chaos seed in 5000 (hash stream broken?)")
		}
		spec.Seed = s
		probe := fault.NewChaos(spec)
		if e, ok := probe.KillAtEpoch("job-000001", 1); !ok || e != 1 {
			continue
		}
		if _, ok := probe.KillAtEpoch("job-000001", 2); !ok {
			break
		}
	}

	_, ref := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	want := resultJSON(t, submitAndWait(t, ctx, ref, req))

	_, c := startServer(t, server.Config{
		Sched: sched.Config{
			Workers: 1, MaxAttempts: 3,
			RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
			BreakerThreshold: 2, // keep the breaker out of this test
		},
		Chaos: fault.NewChaos(spec),
	})
	final := submitAndWait(t, ctx, c, req)
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (killed once, then clean)", final.Attempts)
	}
	if got := resultJSON(t, final); got != want {
		t.Errorf("post-retry result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	// The stream must carry the retry event naming the injected kill.
	sawRetry := false
	if err := c.Stream(ctx, final.ID, func(ev sched.Event) error {
		if ev.Type == "retry" {
			sawRetry = true
			if ev.Attempt != 1 || !strings.Contains(ev.Error, "chaos") {
				t.Errorf("retry event = attempt %d error %q", ev.Attempt, ev.Error)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawRetry {
		t.Error("stream carried no retry event")
	}
}

// TestChaosRetryServedFromCacheStreamsEpochs: a job killed after streaming
// some epochs, whose retry is served from the result cache, streams the
// cached run's epochs after its retry event, as a computed retry would.
func TestChaosRetryServedFromCacheStreamsEpochs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test"}

	// A seed whose kill lands on job-000001's first attempt after at least
	// one streamed epoch and before the run's last (R04 runs 7).
	spec := fault.ChaosSpec{KillEpoch: 0.5}
	for s := int64(1); ; s++ {
		if s > 5000 {
			t.Fatal("no suitable chaos seed in 5000 (hash stream broken?)")
		}
		spec.Seed = s
		if e, ok := fault.NewChaos(spec).KillAtEpoch("job-000001", 1); ok && e >= 2 && e <= 4 {
			break
		}
	}

	refSrv, ref := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	want := submitAndWait(t, ctx, ref, req)
	epochsOf := func(c *client.Client, id string) (before, after []string) {
		t.Helper()
		retried := false
		if err := c.Stream(ctx, id, func(ev sched.Event) error {
			switch ev.Type {
			case "retry":
				retried = true
			case "epoch":
				data, err := json.Marshal(ev.Epoch)
				if err != nil {
					return err
				}
				if retried {
					after = append(after, string(data))
				} else {
					before = append(before, string(data))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return before, after
	}
	wantEpochs, _ := epochsOf(ref, want.ID)
	if len(wantEpochs) != want.Result.Epochs {
		t.Fatalf("reference streamed %d epochs, result has %d", len(wantEpochs), want.Result.Epochs)
	}

	// The first attempt misses the cache and is killed; the retry finds the
	// reference run's result, as if an identical job had finished during
	// the backoff.
	var fetches atomic.Int32
	_, c := startServer(t, server.Config{
		Sched: sched.Config{
			Workers: 1, MaxAttempts: 3,
			RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
			BreakerThreshold: 2,
		},
		Chaos: fault.NewChaos(spec),
		PeerFetch: func(_ context.Context, key engine.Key) ([]byte, bool) {
			if fetches.Add(1) == 1 {
				return nil, false
			}
			return refSrv.Cache().Get(key)
		},
	})
	final := submitAndWait(t, ctx, c, req)
	if final.Attempts != 2 || !final.CacheHit {
		t.Fatalf("attempts = %d, cache_hit = %v; want 2 attempts ending in a cache hit", final.Attempts, final.CacheHit)
	}
	if got := resultJSON(t, final); got != resultJSON(t, want) {
		t.Errorf("cached retry's result differs from the reference:\n got %s\nwant %s", got, resultJSON(t, want))
	}
	killed, retried := epochsOf(c, final.ID)
	if len(killed) == 0 {
		t.Error("the first attempt streamed no epoch before its kill")
	}
	if strings.Join(retried, "\n") != strings.Join(wantEpochs, "\n") {
		t.Errorf("after the retry event the stream carries %d epochs, want the cached run's %d", len(retried), len(wantEpochs))
	}
}

// TestChaosQuarantineAfterMaxAttempts: a poison job burns its whole retry
// budget and lands in quarantine, visible in status, stream and metrics.
func TestChaosQuarantineAfterMaxAttempts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, c := startServer(t, server.Config{
		Sched: sched.Config{
			Workers: 1, MaxAttempts: 2,
			RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
			BreakerThreshold: 2,
		},
		Chaos: fault.NewChaos(fault.ChaosSpec{Poison: 1, Seed: 3}),
	})
	st, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateQuarantined {
		t.Fatalf("poison job ended %s (%s), want quarantined", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want MaxAttempts = 2", final.Attempts)
	}
	if !strings.Contains(final.Error, "quarantined after 2 failed attempts") {
		t.Errorf("error %q does not explain the quarantine", final.Error)
	}
	waitMetric(t, c, "server_jobs_quarantined_total 1")
	waitMetric(t, c, "server_job_retries_total 1")
}

// TestChaosBreakerShedsWhenExecutionMeltsDown: sustained attempt failures
// open the breaker — new submissions get 503 + Retry-After and /readyz
// fails while /healthz stays ok.
func TestChaosBreakerShedsWhenExecutionMeltsDown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, c := startServer(t, server.Config{
		Sched: sched.Config{
			Workers: 1, MaxAttempts: 1,
			BreakerWindow: 3, BreakerThreshold: 0.5, BreakerCooldown: time.Minute,
		},
		Chaos: fault.NewChaos(fault.ChaosSpec{Poison: 1, Seed: 5}),
	})
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
		if err != nil {
			t.Fatalf("submit %d (breaker should still be closed): %v", i, err)
		}
		if final, err := c.Wait(ctx, st.ID); err != nil || final.State != sched.StateQuarantined {
			t.Fatalf("job %d = %v state %s, want quarantined", i, err, final.State)
		}
	}
	waitMetric(t, c, "server_breaker_open 1")
	waitMetric(t, c, "server_breaker_trips_total 1")

	_, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with open breaker = %v, want 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Error("breaker 503 must carry Retry-After")
	}
	if !strings.Contains(apiErr.Message, "circuit breaker") {
		t.Errorf("breaker rejection message %q does not name the breaker", apiErr.Message)
	}

	ready, err := http.Get(c.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz with open breaker = %d, want 503", ready.StatusCode)
	}
	if ready.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 must carry Retry-After")
	}
	healthy, err := http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthy.Body.Close()
	if healthy.StatusCode != http.StatusOK {
		t.Errorf("/healthz with open breaker = %d; liveness must not fail", healthy.StatusCode)
	}
}

// TestChaosCacheCorruptionCostsWorkNotCorrectness: a corrupted disk cache
// entry is detected by the checksum on the next read and recomputed — the
// injected bit rot costs a cache miss, never a wrong result.
func TestChaosCacheCorruptionCostsWorkNotCorrectness(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test"}
	_, c := startServer(t, server.Config{
		Sched:    sched.Config{Workers: 1, BreakerThreshold: 2},
		CacheDir: t.TempDir(),
		Chaos:    fault.NewChaos(fault.ChaosSpec{CacheCorrupt: 1, Seed: 7}),
	})
	first := submitAndWait(t, ctx, c, req)
	second := submitAndWait(t, ctx, c, req)
	if second.CacheHit {
		t.Error("corrupted cache entry served as a hit")
	}
	if resultJSON(t, second) != resultJSON(t, first) {
		t.Errorf("recomputed result differs:\n got %s\nwant %s",
			resultJSON(t, second), resultJSON(t, first))
	}
}

// TestChaosSoak floods a durable server with jobs under simultaneous chaos
// — forced first-attempt failures, poison jobs, journal write errors and
// stalls, disk-cache corruption — and asserts the exact robustness
// contract: zero jobs lost, zero duplicated, zero wrong results, and
// quarantine hits precisely the deliberately poisoned set.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	spec := fault.ChaosSpec{
		FailFirst: 1, Poison: 0.2,
		JournalErr: 0.05, JournalSlow: 0.1, SlowMs: 1,
		CacheCorrupt: 0.3, Seed: 1234,
	}
	dir := t.TempDir()
	inj := fault.NewChaos(spec)
	srv, c := startServer(t, server.Config{
		Sched: sched.Config{
			Workers: 3, QueueDepth: 64, MaxAttempts: 3,
			RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
			// Half of all first attempts fail by design; the breaker would
			// (correctly) shed under that, which is not what this test probes.
			BreakerThreshold: 2,
		},
		StoreDir: dir, CacheDir: t.TempDir(),
		Chaos: inj,
	})
	// An oracle injector with the same spec makes the same decisions
	// (fault.TestChaosDeterminism), so the test can predict per-job fates.
	oracle := fault.NewChaos(spec)
	// Journal errors can shed a submission with 503; the client retry
	// policy absorbs that, exactly as a production client would.
	c.Retry = client.RetryPolicy{Max: 10, BaseWait: time.Millisecond, MaxWait: 10 * time.Millisecond}

	const n = 16
	accepted := make(map[string]sched.JobRequest, n)
	var order []string
	for i := 0; i < n; i++ {
		req := sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test", Seed: int64(1000 + i)}
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted[st.ID] = req
		order = append(order, st.ID)
	}

	poisoned := 0
	results := make(map[string]string, n)
	for _, id := range order {
		final, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if oracle.Poisoned(id) {
			poisoned++
			if final.State != sched.StateQuarantined {
				t.Errorf("poisoned %s ended %s, want quarantined", id, final.State)
			}
			if final.Attempts != 3 {
				t.Errorf("poisoned %s used %d attempts, want MaxAttempts = 3", id, final.Attempts)
			}
			continue
		}
		// fail-first=1: every healthy job fails exactly its first attempt.
		if final.State != sched.StateDone {
			t.Errorf("healthy %s ended %s: %s", id, final.State, final.Error)
			continue
		}
		if final.Attempts != 2 {
			t.Errorf("healthy %s used %d attempts, want 2 under fail-first=1", id, final.Attempts)
		}
		results[id] = resultJSON(t, final)
	}
	if poisoned == 0 {
		t.Fatal("poison=0.2 over 16 jobs poisoned none; weak soak")
	}
	// The injector's ledger proves the damage was real, not vacuously
	// survived: every job's first attempt panicked (fail-first=1), and the
	// disk cache took corruption hits.
	counts := inj.Counts()
	if counts.ExecPanics < int64(n) {
		t.Errorf("only %d exec panics fired across %d jobs under fail-first=1", counts.ExecPanics, n)
	}
	if counts.CacheCorrupts == 0 {
		t.Error("cache-corrupt=0.3 never fired")
	}
	t.Logf("soak: %d jobs, %d poisoned/quarantined, chaos counts %+v", n, poisoned, counts)

	// Zero duplicated: the server retains exactly the accepted jobs, once.
	listed, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range listed {
		if seen[st.ID] {
			t.Errorf("job %s listed twice", st.ID)
		}
		seen[st.ID] = true
	}
	if len(listed) != len(accepted) {
		t.Errorf("listed %d jobs, accepted %d", len(listed), len(accepted))
	}

	// Zero wrong results: every completed job matches a chaos-free run of
	// the same request on a pristine server.
	_, ref := startServer(t, server.Config{Sched: sched.Config{Workers: 2}})
	for id, req := range accepted {
		want, ok := results[id]
		if !ok {
			continue // poisoned
		}
		if got := resultJSON(t, submitAndWait(t, ctx, ref, req)); got != want {
			t.Errorf("%s result differs from chaos-free run:\n got %s\nwant %s", id, want, got)
		}
	}

	// Zero lost across a restart: shut down, then fold the journal the way
	// the next boot would. Every accepted job must still be there; journal
	// chaos may have eaten a terminal record (it is best-effort by design),
	// which only demotes that job to re-executable — never loses it.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close() //nolint:errcheck // chaos may fail the final compaction; the journal stays authoritative
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopening journal after soak: %v", err)
	}
	defer st.Close() //nolint:errcheck
	folded := map[string]store.JobState{}
	for _, js := range st.Jobs() {
		folded[js.ID] = js
	}
	for id := range accepted {
		js, ok := folded[id]
		if !ok {
			t.Errorf("job %s lost from the journal", id)
			continue
		}
		if js.Terminal() && js.State == store.StateDone && len(js.Result) == 0 {
			t.Errorf("done job %s journaled without its result", id)
		}
	}
	if len(folded) != len(accepted) {
		t.Errorf("journal folds %d jobs, accepted %d", len(folded), len(accepted))
	}
}
