package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/host"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// randSrc mirrors the SpMSpV operand RNG of host.NewOffload (seed+1), so
// the in-process comparison run builds, independently, the exact workload
// the server builds.
func randSrc(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed + 1)) }

func powerEE() power.Mode { return power.EnergyEfficient }

// startServer boots a Server with its worker pool on an httptest listener.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test teardown
	})
	return s, client.New(ts.URL)
}

// idleServer builds a Server whose worker pool is never started, so
// submitted jobs sit in the queue — the deterministic way to exercise
// admission control and queued-state behavior.
func idleServer(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// TestJobLifecycleMatchesHost is the service's core guarantee: a job
// submitted over HTTP returns a Result identical (through a JSON round
// trip) to the equivalent in-process host.Runner.RunAdaptiveFull call.
func TestJobLifecycleMatchesHost(t *testing.T) {
	_, c := startServer(t, server.Config{Sched: sched.Config{Workers: 2}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := sched.JobRequest{Mode: "adaptive", Kernel: "spmspv", Matrix: "R04", Scale: "test"}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sched.StateQueued {
		t.Fatalf("submit state = %q, want queued", st.State)
	}

	var epochs int
	var sawRunning bool
	err = c.Stream(ctx, st.ID, func(ev sched.Event) error {
		switch ev.Type {
		case "state":
			if ev.State == sched.StateRunning {
				sawRunning = true
			}
		case "epoch":
			epochs++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !sawRunning {
		t.Error("stream never reported the running state")
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone || final.Result == nil {
		t.Fatalf("final = %+v, want done with result", final)
	}
	if epochs == 0 || epochs != final.Result.Epochs {
		t.Errorf("streamed %d epoch events, result says %d epochs", epochs, final.Result.Epochs)
	}

	// Reproduce the identical run in-process through the public host API.
	sc := experiments.TestScale()
	entry, err := matrix.Entry("R04")
	if err != nil {
		t.Fatal(err)
	}
	am := entry.Generate(sc.Matrix, sc.Seed)
	a := am.ToCSC()
	x := matrix.RandomVec(randSrc(sc.Seed), a.Cols, 0.5)
	y, wl, err := kernels.SpMSpV(a, x, sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		t.Fatal(err)
	}
	off := host.Offload{
		Workload: wl,
		BytesIn:  host.InputBytes(a.NNZ(), a.Cols) + host.InputBytes(x.NNZ(), a.Cols),
		BytesOut: y.NNZ() * 12,
	}
	model, err := experiments.Model(sc, "spmspv", config.CacheMode, powerEE())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: sc.Epoch}
	r := host.NewRunner(sc.Chip, sc.BW, sc.Epoch)
	want, _, err := r.RunAdaptiveFull(context.Background(), model, opts, config.Baseline, off)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.Host != want {
		t.Errorf("server result differs from host.RunAdaptiveFull:\n got %+v\nwant %+v", final.Result.Host, want)
	}
}

// TestCacheHitReplaysTrace submits the same job twice and checks the
// second is served from the cache with the full epoch stream replayed.
func TestCacheHitReplaysTrace(t *testing.T) {
	_, c := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test"}

	first := submitAndWait(t, ctx, c, req)
	if first.CacheHit {
		t.Fatal("first run must not be a cache hit")
	}
	second := submitAndWait(t, ctx, c, req)
	if !second.CacheHit {
		t.Fatal("second identical run must be a cache hit")
	}
	if second.Result.Host != first.Result.Host || second.Result.Epochs != first.Result.Epochs {
		t.Errorf("cached result differs: %+v vs %+v", second.Result, first.Result)
	}
	epochs := 0
	if err := c.Stream(ctx, second.ID, func(ev sched.Event) error {
		if ev.Type == "epoch" {
			epochs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if epochs != first.Result.Epochs {
		t.Errorf("cache-hit stream replayed %d epochs, want %d", epochs, first.Result.Epochs)
	}
}

func submitAndWait(t *testing.T, ctx context.Context, c *client.Client, req sched.JobRequest) sched.JobStatus {
	t.Helper()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone {
		t.Fatalf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	return final
}

// TestQueueFullRejects fills the admission queue of a server whose workers
// never start and checks the overflow submission gets 429 + Retry-After.
func TestQueueFullRejects(t *testing.T) {
	c := idleServer(t, server.Config{Sched: sched.Config{QueueDepth: 2}})
	ctx := context.Background()
	req := sched.JobRequest{Matrix: "R04"}
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, req); err != nil {
			t.Fatalf("submit %d within queue depth: %v", i, err)
		}
	}
	_, err := c.Submit(ctx, req)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("overflow submit error = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", apiErr.StatusCode)
	}
	if apiErr.RetryAfter <= 0 {
		t.Error("429 must carry a Retry-After hint")
	}
}

// TestRateLimitRejects exhausts the per-client token bucket.
func TestRateLimitRejects(t *testing.T) {
	c := idleServer(t, server.Config{Sched: sched.Config{QueueDepth: 16}, RatePerSec: 0.01, Burst: 1})
	ctx := context.Background()
	if _, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"}); err != nil {
		t.Fatalf("first submit within burst: %v", err)
	}
	_, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit = %v, want 429", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Error("rate-limit 429 must carry a Retry-After hint")
	}
}

// TestMalformedRequests covers the 400 surface: syntax errors, unknown
// fields, trailing data and semantic validation failures.
func TestMalformedRequests(t *testing.T) {
	c := idleServer(t, server.Config{})
	ts := c.Base
	for _, tc := range []struct {
		name, body string
	}{
		{"syntax", `{"mode":`},
		{"unknown-field", `{"mod":"adaptive"}`},
		{"trailing", `{"mode":"adaptive"}{"mode":"static"}`},
		{"bad-mode", `{"mode":"warp"}`},
		{"bad-matrix", `{"matrix":"nope"}`},
		{"exclusive-input", `{"matrix":"R04","matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n"}`},
		{"faults-wrong-mode", `{"faults":"nan=0.1"}`},
		{"count-wrong-mode", `{"count":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestOversizedUploadRejected posts a body beyond MaxBodyBytes.
func TestOversizedUploadRejected(t *testing.T) {
	c := idleServer(t, server.Config{MaxBodyBytes: 1024})
	body := `{"matrix_market":"%%MatrixMarket matrix coordinate real general\n` + strings.Repeat("1 1 1.0\\n", 4096) + `"}`
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

// TestMatrixMarketUpload runs a job on an uploaded matrix body; the
// terminal status of its SSE result event echoes the upload's size and
// digest, not the body.
func TestMatrixMarketUpload(t *testing.T) {
	_, c := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	mm := "%%MatrixMarket matrix coordinate real general\n" +
		"4 4 6\n1 1 2.0\n2 2 3.0\n3 3 1.0\n4 4 4.0\n1 3 1.5\n4 1 0.5\n"
	final := submitAndWait(t, ctx, c, sched.JobRequest{Mode: "static", MatrixMarket: mm})
	if final.Result.Epochs == 0 {
		t.Error("uploaded-matrix job produced no epochs")
	}
	sum := sha256.Sum256([]byte(mm))
	if final.Request.MatrixMarket != "" || final.UploadBytes != len(mm) || final.UploadSHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("result status echoes upload %d bytes %q (body %d bytes), want %d bytes %x",
			final.UploadBytes, final.UploadSHA256, len(final.Request.MatrixMarket), len(mm), sum)
	}
}

// TestBadUploadRefusedAtTheDoor posts uploads no job could run to a
// server whose worker pool never starts, so nothing can execute them: a
// malformed entry and a size above matrix.MaxDim must each get a 400,
// counted as a bad request, and a valid upload after them a 202.
func TestBadUploadRefusedAtTheDoor(t *testing.T) {
	c := idleServer(t, server.Config{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, body := range map[string]string{
		"malformed-entry": `{"mode":"static","matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n"}`,
		"huge-size":       `{"mode":"static","matrix_market":"%%MatrixMarket matrix coordinate real general\n1099511627776 1099511627776 1\n1 1 1\n"}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "\nserver_bad_requests_total 2\n") {
		t.Error("the two refusals are not counted in server_bad_requests_total")
	}
	if code := post(`{"mode":"static","matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"}`); code != http.StatusAccepted {
		t.Errorf("valid upload: status %d, want 202", code)
	}
}

// TestStatusEchoOmitsUpload checks every status the server writes for a
// queued upload job (the 202, GET, the list, DELETE and the SSE error
// event of the cancellation) echoes the upload's digest, not its body.
func TestStatusEchoOmitsUpload(t *testing.T) {
	c := idleServer(t, server.Config{})
	mm := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 1 -2\n"
	sum := sha256.Sum256([]byte(mm))
	digest := hex.EncodeToString(sum[:])
	send := func(method, path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, c.Base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	reqBody, err := json.Marshal(sched.JobRequest{Mode: "static", MatrixMarket: mm})
	if err != nil {
		t.Fatal(err)
	}
	submitted := send(http.MethodPost, "/v1/jobs", reqBody)
	var st sched.JobStatus
	if err := json.Unmarshal(submitted, &st); err != nil {
		t.Fatalf("decoding the 202: %v\n%s", err, submitted)
	}
	if st.UploadBytes != len(mm) || st.UploadSHA256 != digest {
		t.Errorf("202 echoes %d bytes %q, want %d bytes %s", st.UploadBytes, st.UploadSHA256, len(mm), digest)
	}
	for _, resp := range []struct {
		name string
		body []byte
	}{
		{"submit", submitted},
		{"get", send(http.MethodGet, "/v1/jobs/"+st.ID, nil)},
		{"list", send(http.MethodGet, "/v1/jobs", nil)},
		{"cancel", send(http.MethodDelete, "/v1/jobs/"+st.ID, nil)},
		{"events", send(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)},
	} {
		if bytes.Contains(resp.body, []byte("matrix_market")) || bytes.Contains(resp.body, []byte("1 1 1.5")) {
			t.Errorf("%s echoes the upload body:\n%s", resp.name, resp.body)
		}
		if !bytes.Contains(resp.body, []byte(digest)) {
			t.Errorf("%s lacks the upload digest:\n%s", resp.name, resp.body)
		}
	}
}

// TestSSEClientDisconnect cancels an event-stream subscription mid-stream
// and checks the server releases the subscriber (gauge back to zero).
func TestSSEClientDisconnect(t *testing.T) {
	c := idleServer(t, server.Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		done <- c.Stream(sctx, st.ID, func(sched.Event) error { return nil })
	}()
	// Let the subscription register, then drop the client.
	waitMetric(t, c, "server_sse_clients 1")
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("stream error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after client disconnect")
	}
	waitMetric(t, c, "server_sse_clients 0")
}

// waitMetric polls /metrics until the exposition contains line, proving
// the server reached the expected state.
func waitMetric(t *testing.T, c *client.Client, line string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		text, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(text, line) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never contained %q", line)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up.
func TestCancelQueuedJob(t *testing.T) {
	c := idleServer(t, server.Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != sched.StateCanceled {
		t.Fatalf("state after cancel = %q, want canceled", got.State)
	}
	if _, err := c.Cancel(ctx, st.ID); err == nil {
		t.Error("second cancel of a terminal job must conflict")
	}
}

// TestDrainCompletesInflight submits jobs, drains, and checks every job
// reached a terminal state and post-drain submissions are refused.
func TestDrainCompletesInflight(t *testing.T) {
	s, c := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, sched.JobRequest{Mode: "static", Matrix: "R04"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := c.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != sched.StateDone {
			t.Errorf("job %s after drain: %s (%s), want done", id, st.State, st.Error)
		}
	}
	_, err := c.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %v, want 503", err)
	}
}

// TestProbesAndInventory covers the operational endpoints.
func TestProbesAndInventory(t *testing.T) {
	s, c := startServer(t, server.Config{Sched: sched.Config{Workers: 1}})
	ctx := context.Background()
	for _, path := range []string{"/healthz", "/readyz", "/version", "/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	ds, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(matrix.Dataset) {
		t.Errorf("datasets = %d entries, want %d", len(ds), len(matrix.Dataset))
	}
	v, err := c.Version(ctx)
	if err != nil || !strings.Contains(v, "sparseadaptd") {
		t.Errorf("version = %q, %v", v, err)
	}
	// Readiness flips once draining.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}
