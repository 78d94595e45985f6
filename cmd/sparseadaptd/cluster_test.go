package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"sparseadapt/internal/cluster"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// clusterAlive polls the coordinator topology endpoint until n workers
// are alive (or the deadline passes).
func clusterAlive(t *testing.T, ctx context.Context, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var topo struct {
				Members []cluster.MemberInfo `json:"members"`
			}
			err = json.NewDecoder(resp.Body).Decode(&topo)
			resp.Body.Close()
			if err == nil {
				alive := 0
				for _, m := range topo.Members {
					if m.Alive {
						alive++
					}
				}
				if alive == n {
					return
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("coordinator never reported %d live workers", n)
}

// seedForOwner scans seeds until the validated request's fingerprint
// lands on want in a ring of the given nodes — the same placement the
// coordinator computes, so tests can steer jobs to a chosen worker.
func seedForOwner(t *testing.T, base sched.JobRequest, want string, nodes ...string) sched.JobRequest {
	t.Helper()
	r := cluster.NewRing(0)
	for _, n := range nodes {
		r.Add(n)
	}
	for seed := base.Seed; seed < base.Seed+4096; seed++ {
		req := base
		req.Seed = seed
		probe := req
		if err := probe.Validate(); err != nil {
			t.Fatal(err)
		}
		if owner, _ := r.Owner(probe.Fingerprint()); owner == want {
			return req
		}
	}
	t.Fatalf("no seed near %d places the job on %s", base.Seed, want)
	return base
}

// TestClusterEndToEnd is the distributed headline scenario: a real
// coordinator binary fronts two real worker binaries, one worker is
// SIGKILLed with jobs in flight, and every accepted job still reaches a
// terminal state exactly once with results byte-for-byte identical to a
// single-node run. kill -9 gives the worker no drain and the coordinator
// no goodbye: heartbeat silence and the severed relay are the only
// signals, and the ordinary retry path must re-place the orphans.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Three jobs steered to each worker: w1 will die holding its share.
	// Adaptive jobs run long enough (tens of ms each, serial on a
	// single-threaded worker) that the kill below reliably lands mid-job.
	var reqs []sched.JobRequest
	for i := 0; i < 3; i++ {
		base := sched.JobRequest{Mode: "adaptive", Matrix: "R04", Scale: "test", Seed: int64(1000 * (i + 1))}
		reqs = append(reqs, seedForOwner(t, base, "w1", "w1", "w2"))
		base.Seed += 500
		reqs = append(reqs, seedForOwner(t, base, "w2", "w1", "w2"))
	}

	// Single-node reference results, computed in-process.
	want := make([]string, len(reqs))
	refSrv, err := server.New(server.Config{Sched: sched.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	refSrv.Start()
	defer refSrv.Drain(context.Background()) //nolint:errcheck // test teardown
	ref := client.New(refTS.URL)
	for i, req := range reqs {
		st, err := ref.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		final, err := ref.Wait(ctx, st.ID)
		if err != nil || final.State != sched.StateDone {
			t.Fatalf("reference job %d: %v (state %s)", i, err, final.State)
		}
		want[i] = marshalResult(t, final)
	}

	// The fleet: one coordinator, two single-threaded workers on fast
	// heartbeats so death detection fits in test time. -max-attempts 4
	// gives the re-placement headroom beyond the default.
	coord := startDaemon(t, bin, "-role", "coordinator", "-addr", "127.0.0.1:0",
		"-hb-interval", "100ms", "-hb-timeout", "400ms", "-max-attempts", "4")
	w1 := startDaemon(t, bin, "-role", "worker", "-addr", "127.0.0.1:0",
		"-coordinator", coord.base, "-node-id", "w1", "-hb-interval", "100ms", "-workers", "1")
	w2 := startDaemon(t, bin, "-role", "worker", "-addr", "127.0.0.1:0",
		"-coordinator", coord.base, "-node-id", "w2", "-hb-interval", "100ms", "-workers", "1")
	clusterAlive(t, ctx, coord.base, 2)

	c := client.New(coord.base)
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, err := c.SubmitWithRequestID(ctx, req, fmt.Sprintf("e2e-%d", i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// Wait until a w1-owned job is provably running (w1 executes serially,
	// so its other two are accepted-but-queued there), then SIGKILL w1.
	w1Running := false
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline) && !w1Running; {
		for i := 0; i < len(ids); i += 2 { // even indexes are w1-owned
			st, err := c.Get(ctx, ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if st.State == sched.StateRunning {
				w1Running = true
				break
			}
		}
		if !w1Running {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !w1Running {
		t.Fatal("no w1-owned job ever reached running")
	}
	if err := w1.cmd.Process.Kill(); err != nil { // SIGKILL, no drain
		t.Fatal(err)
	}
	<-w1.copied
	w1.cmd.Wait() //nolint:errcheck // killed: non-zero exit is the point

	// The sweeper must notice the silence and the fleet view shrink to one.
	clusterAlive(t, ctx, coord.base, 1)

	// Every accepted job still completes, and every result matches the
	// single-node reference byte for byte.
	for i, id := range ids {
		final, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != sched.StateDone {
			t.Fatalf("%s ended %s (%s) after %d attempts, want done", id, final.State, final.Error, final.Attempts)
		}
		if got := marshalResult(t, final); got != want[i] {
			t.Errorf("%s result differs from single-node run:\n got %s\nwant %s", id, got, want[i])
		}
		if final.RequestID != fmt.Sprintf("e2e-%d", i) {
			t.Errorf("%s request id = %q, want e2e-%d", id, final.RequestID, i)
		}
	}

	// Exactly once: the coordinator's job table holds each id a single time.
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, st := range list {
		seen[st.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("job %s appears %d times in the job table, want exactly 1", id, seen[id])
		}
	}

	// Resubmitting a surviving worker's job must be a cache hit end to end.
	st, err := c.Submit(ctx, reqs[1]) // w2-owned
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != sched.StateDone {
		t.Fatalf("resubmit: %v (state %s)", err, final.State)
	}
	if !final.CacheHit {
		t.Error("resubmitted job was recomputed, want a worker cache hit")
	}
	if got := marshalResult(t, final); got != want[1] {
		t.Errorf("cached result differs from single-node run:\n got %s\nwant %s", got, want[1])
	}

	// The cluster metric family is visible on the coordinator.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{
		"cluster_workers_alive 1",
		"cluster_worker_deaths_total 1",
		"cluster_placements_total",
		"cluster_jobs_requeued_total",
		"cluster_forward_latency_seconds",
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("coordinator metrics missing %q", m)
		}
	}

	// The survivors drain cleanly.
	for name, d := range map[string]*daemon{"w2": w2, "coordinator": coord} {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		<-d.copied
		if err := d.cmd.Wait(); err != nil {
			t.Fatalf("%s exit after SIGTERM: %v", name, err)
		}
		if !strings.Contains(d.rest.String(), "shutdown complete") {
			t.Errorf("%s did not report a clean shutdown; output:\n%s", name, d.rest.String())
		}
	}
}
