package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// serveLater opens a listener whose handler is installed afterwards, so
// a worker can learn its advertise URL before it is constructed.
func serveLater(t *testing.T) (*httptest.Server, func(http.Handler)) {
	t.Helper()
	var h atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hh, ok := h.Load().(http.Handler); ok {
			hh.ServeHTTP(w, r)
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	return ts, func(hh http.Handler) { h.Store(hh) }
}

// metricValue reads one instrument from a registry snapshot.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("registry has no metric %q", name)
	return 0
}

// startWorker builds and starts a worker whose API is already listening.
func startWorker(t *testing.T, id, coordinatorURL string, cfg server.Config) *Worker {
	t.Helper()
	ts, install := serveLater(t)
	w, err := NewWorker(WorkerConfig{
		Server:            cfg,
		ID:                id,
		Advertise:         ts.URL,
		Coordinator:       coordinatorURL,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	install(w.Server().Handler())
	w.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w.Drain(ctx) //nolint:errcheck // test teardown
	})
	return w
}

// waitAlive polls the coordinator until n workers pass heartbeats.
func waitAlive(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.mem.alive() >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d live workers (have %d)", n, c.mem.alive())
}

// seedOwnedBy scans seeds until the validated request's fingerprint lands
// on the wanted node of a ring holding exactly the given nodes — how the
// tests steer placement without touching the production hash.
func seedOwnedBy(t *testing.T, req sched.JobRequest, want string, nodes ...string) sched.JobRequest {
	t.Helper()
	ring := NewRing(0)
	for _, n := range nodes {
		ring.Add(n)
	}
	for seed := int64(1); seed < 10000; seed++ {
		r := req
		r.Seed = seed
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if owner, _ := ring.Owner(r.Fingerprint()); owner == want {
			r2 := req
			r2.Seed = seed
			return r2
		}
	}
	t.Fatalf("no seed under 10000 places the job on %s", want)
	return req
}

// TestClusterPeerCacheHit is the cache-peering acceptance scenario: a
// result computed on worker A becomes a cache hit — with the recorded
// epoch trace replayed over SSE — when the same fingerprint later routes
// to a freshly joined worker B, which pulls A's entry over the peer
// protocol instead of recomputing.
func TestClusterPeerCacheHit(t *testing.T) {
	cts, installC := serveLater(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	installC(coord.Server().Handler())
	coord.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Drain(ctx) //nolint:errcheck // test teardown
	}()

	// The job must land on wB once both workers are up.
	req := seedOwnedBy(t, sched.JobRequest{Mode: "adaptive", Matrix: "R04", Scale: "test"}, "wB", "wA", "wB")

	wA := startWorker(t, "wA", cts.URL, server.Config{Sched: sched.Config{Workers: 1}})
	waitAlive(t, coord, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := client.New(cts.URL)

	// First run: only wA exists, so wA computes and caches the result.
	st1, err := cl.SubmitWithRequestID(ctx, req, "rid-cluster-1")
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	fin1, err := cl.Wait(ctx, st1.ID)
	if err != nil || fin1.State != sched.StateDone {
		t.Fatalf("first run: %v (state %s: %s)", err, fin1.State, fin1.Error)
	}
	if fin1.CacheHit {
		t.Fatal("first run was a cache hit; the test needs a cold computation")
	}
	// The X-Request-ID crossed the coordinator→worker hop.
	workerJobs, err := client.New(wA.cfg.Advertise).List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(workerJobs) != 1 || workerJobs[0].RequestID != "rid-cluster-1" {
		t.Errorf("worker-side job = %+v, want one job carrying rid-cluster-1", workerJobs)
	}

	// wB joins; the same fingerprint now routes to it.
	wB := startWorker(t, "wB", cts.URL, server.Config{Sched: sched.Config{Workers: 1}})
	waitAlive(t, coord, 2)

	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	epochs := 0
	if err := cl.Stream(ctx, st2.ID, func(ev sched.Event) error {
		if ev.Type == "epoch" {
			epochs++
		}
		return nil
	}); err != nil {
		t.Fatalf("stream 2: %v", err)
	}
	fin2, err := cl.Wait(ctx, st2.ID)
	if err != nil || fin2.State != sched.StateDone {
		t.Fatalf("second run: %v (state %s: %s)", err, fin2.State, fin2.Error)
	}
	if !fin2.CacheHit {
		t.Error("rebalanced rerun was not served from cache")
	}
	if epochs == 0 || epochs != fin2.Result.Epochs {
		t.Errorf("replayed %d epochs over the relay, result says %d", epochs, fin2.Result.Epochs)
	}
	if hits := metricValue(t, wB.Server().Metrics(), "cluster_peer_cache_hits_total"); hits != 1 {
		t.Errorf("cluster_peer_cache_hits_total on wB = %v, want 1", hits)
	}
	if served := metricValue(t, wA.Server().Metrics(), "cluster_peer_cache_requests_total"); served < 1 {
		t.Errorf("cluster_peer_cache_requests_total on wA = %v, want >= 1", served)
	}

	// Fleet bookkeeping.
	if v := metricValue(t, coord.Server().Metrics(), "cluster_workers_alive"); v != 2 {
		t.Errorf("cluster_workers_alive = %v, want 2", v)
	}
	if v := metricValue(t, coord.Server().Metrics(), "cluster_worker_joins_total"); v != 2 {
		t.Errorf("cluster_worker_joins_total = %v, want 2", v)
	}
}

// TestClusterWorkerDeathRequeue is the deterministic mid-job failover:
// a job streams on a worker that then stops heartbeating; the sweep
// declares it dead, the relay aborts, and the retry path re-places the
// job on the surviving worker — same attempt budget as a local failure.
func TestClusterWorkerDeathRequeue(t *testing.T) {
	cts, installC := serveLater(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Server:            server.Config{Sched: sched.Config{RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond}},
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	installC(coord.Server().Handler())
	coord.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Drain(ctx) //nolint:errcheck // test teardown
	}()

	// The doomed worker accepts the job, starts the event stream, then
	// hangs forever — a live TCP connection to a wedged (soon dead) node.
	streamStarted := make(chan struct{})
	var once atomic.Bool
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"job-000001","state":"queued","request_id":%q}`, r.Header.Get("X-Request-ID"))
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "text/event-stream")
			w.(http.Flusher).Flush()
			if once.CompareAndSwap(false, true) {
				close(streamStarted)
			}
			<-r.Context().Done()
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		}
	}))
	t.Cleanup(doomed.Close)

	survivor := startWorker(t, "survivor", cts.URL, server.Config{Sched: sched.Config{Workers: 1, RetryBaseDelay: time.Millisecond}})
	_ = survivor
	waitAlive(t, coord, 1)

	// Register the doomed worker by hand and keep it "alive" with manual
	// heartbeats until the relay is provably streaming from it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	beat := func() {
		resp, err := http.Post(cts.URL+"/v1/cluster/join", "application/json",
			strings.NewReader(fmt.Sprintf(`{"id":"doomed","base":%q}`, doomed.URL)))
		if err == nil {
			resp.Body.Close()
		}
	}
	beat()
	req := seedOwnedBy(t, sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test"}, "doomed", "doomed", "survivor")

	cl := client.New(cts.URL)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	keepAlive := time.NewTicker(20 * time.Millisecond)
	defer keepAlive.Stop()
wait:
	for {
		select {
		case <-streamStarted:
			break wait // stop heartbeating: the worker is now "dead"
		case <-keepAlive.C:
			beat()
		case <-ctx.Done():
			t.Fatal("placement never reached the doomed worker")
		}
	}

	fin, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != sched.StateDone {
		t.Fatalf("job after failover: %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one on the dead worker, one on the survivor)", fin.Attempts)
	}
	reg := coord.Server().Metrics()
	if v := metricValue(t, reg, "cluster_worker_deaths_total"); v != 1 {
		t.Errorf("cluster_worker_deaths_total = %v, want 1", v)
	}
	if v := metricValue(t, reg, "cluster_jobs_requeued_total"); v != 1 {
		t.Errorf("cluster_jobs_requeued_total = %v, want 1", v)
	}
}

// TestClusterNoWorkersQuarantine: with an empty fleet every placement
// attempt fails and the job exhausts its ordinary quarantine budget —
// the cluster introduces no new terminal states.
func TestClusterNoWorkersQuarantine(t *testing.T) {
	cts, installC := serveLater(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Server: server.Config{Sched: sched.Config{MaxAttempts: 2, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 2 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	installC(coord.Server().Handler())
	coord.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Drain(ctx) //nolint:errcheck // test teardown
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := client.New(cts.URL)
	st, err := cl.Submit(ctx, sched.JobRequest{Matrix: "R04"})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != sched.StateQuarantined {
		t.Fatalf("state = %s, want quarantined", fin.State)
	}
	if !strings.Contains(fin.Error, "no live workers") {
		t.Errorf("error = %q, want it to name the empty fleet", fin.Error)
	}
	if v := metricValue(t, coord.Server().Metrics(), "cluster_placement_failures_total"); v != 2 {
		t.Errorf("cluster_placement_failures_total = %v, want 2", v)
	}
}

// TestClusterTopologyEndpoints: both roles expose their fleet view on
// GET /v1/cluster.
func TestClusterTopologyEndpoints(t *testing.T) {
	cts, installC := serveLater(t)
	coord, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	installC(coord.Server().Handler())
	coord.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Drain(ctx) //nolint:errcheck // test teardown
	}()
	w := startWorker(t, "w-topo", cts.URL, server.Config{Sched: sched.Config{Workers: 1}})
	waitAlive(t, coord, 1)

	get := func(base string) string {
		resp, err := http.Get(base + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	cbody := get(cts.URL)
	if !strings.Contains(cbody, `"coordinator"`) || !strings.Contains(cbody, `"w-topo"`) {
		t.Errorf("coordinator topology missing role/member: %s", cbody)
	}
	wbody := get(w.cfg.Advertise)
	if !strings.Contains(wbody, `"worker"`) || !strings.Contains(wbody, `"w-topo"`) {
		t.Errorf("worker topology missing role/id: %s", wbody)
	}

	// Malformed and incomplete joins are rejected.
	for _, body := range []string{`{`, `{"id":"x"}`, `{"base":"http://x"}`} {
		resp, err := http.Post(cts.URL+"/v1/cluster/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("join %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestClusterHeartbeatDuringPlacement heartbeats a live worker as fast as
// the coordinator answers while jobs are placed on it. Every heartbeat
// rewrites the worker's membership record, so placement must read the
// worker's base URL and down channel under the membership lock; run under
// -race, a read after the lock is released is reported here.
func TestClusterHeartbeatDuringPlacement(t *testing.T) {
	cts, installC := serveLater(t)
	coord, err := NewCoordinator(CoordinatorConfig{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	installC(coord.Server().Handler())
	coord.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Drain(ctx) //nolint:errcheck // test teardown
	}()
	w := startWorker(t, "w-beat", cts.URL, server.Config{Sched: sched.Config{Workers: 1}})
	waitAlive(t, coord, 1)

	stop, stopped := make(chan struct{}), make(chan struct{})
	var beats atomic.Int64
	go func() {
		defer close(stopped)
		body := fmt.Sprintf(`{"id":"w-beat","base":%q}`, w.cfg.Advertise)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(cts.URL+"/v1/cluster/join", "application/json", strings.NewReader(body))
			if err == nil {
				// Read the members table to the end so the next beat
				// reuses this keep-alive connection.
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
				resp.Body.Close()
				beats.Add(1)
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := client.New(cts.URL)
	ids := make([]string, 16)
	for i := range ids {
		st, err := cl.Submit(ctx, sched.JobRequest{Mode: "static", Matrix: "R04", Scale: "test", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		fin, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != sched.StateDone {
			t.Errorf("job %s: %s (%s), want done", id, fin.State, fin.Error)
		}
	}
	if beats.Load() == 0 {
		t.Error("no heartbeat reached the coordinator while jobs were placed")
	}
}
