// Command sparseadaptd is the simulation-as-a-service daemon: it serves
// the sparseadapt run modes (static, adaptive, resilient, batch) over an
// HTTP/JSON API with a bounded job queue, admission control, per-client
// rate limiting, SSE progress streaming, Prometheus metrics and pprof on
// one listener. See docs/SERVER.md for the API reference and capacity
// tuning guidance.
//
// Usage:
//
//	sparseadaptd -addr 127.0.0.1:8080 -workers 4 -queue 64
//
// The daemon also runs as one node of a cluster (see docs/SERVER.md):
//
//	sparseadaptd -role coordinator -addr :8080
//	sparseadaptd -role worker -addr :8081 -coordinator http://coord:8080
//
// A coordinator fronts the same API but executes nothing locally: jobs
// are placed on workers by consistent-hashing their content fingerprint,
// epoch streams are relayed, and a dead worker's in-flight jobs re-enter
// the ordinary retry path. Workers execute jobs and serve their result
// cache to peers.
//
// SIGINT/SIGTERM drains gracefully: intake stops (submissions get 503),
// queued and in-flight jobs run to completion (bounded by -drain-timeout),
// then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"sparseadapt/internal/cluster"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/flagcheck"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/sigctx"
	"sparseadapt/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// node is the role-independent lifecycle surface main drives: the
// standalone server, the cluster coordinator and the cluster worker all
// satisfy it.
type node interface {
	Start()
	Drain(context.Context) error
	Close() error
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("sparseadaptd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent job executions (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue depth; a full queue rejects with 429")
	rate := fs.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
	burst := fs.Int("burst", 8, "per-client submission burst")
	maxBody := fs.Int64("max-body", 8<<20, "request body limit in bytes (caps MatrixMarket uploads)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "default and maximum per-job execution deadline")
	maxJobs := fs.Int("max-jobs", 1024, "retained job records before the oldest finished jobs are evicted")
	cacheDir := fs.String("cache-dir", "", "on-disk tier of the result cache (empty = memory only)")
	cacheEntries := fs.Int("cache-entries", 512, "in-memory result cache entries")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "grace period for in-flight jobs on shutdown")
	storeDir := fs.String("store-dir", "", "durable job journal directory; on boot the journal is replayed and interrupted jobs re-run (empty = no durability)")
	maxAttempts := fs.Int("max-attempts", 3, "execution attempts per job before quarantine")
	chaosSpec := fs.String("chaos", "", "deterministic chaos spec, e.g. exec-panic=0.2,journal-err=0.05,seed=7 (testing only)")
	tenantInflight := fs.Int("tenant-max-inflight", 0, "per-tenant queued+running job cap (0 = unlimited)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant submissions per second (0 = unlimited)")
	tenantBurst := fs.Float64("tenant-burst", 4, "per-tenant submission burst")
	role := fs.String("role", "", "cluster role: coordinator|worker (empty = standalone)")
	coordinator := fs.String("coordinator", "", "coordinator base URL (worker role)")
	advertise := fs.String("advertise", "", "URL peers reach this node at (worker role; default http://<bound address>)")
	nodeID := fs.String("node-id", "", "stable identity on the placement ring (worker role; default the advertise address)")
	hbInterval := fs.Duration("hb-interval", time.Second, "heartbeat cadence (worker report / coordinator expectation)")
	hbTimeout := fs.Duration("hb-timeout", 3*time.Second, "heartbeat silence after which the coordinator declares a worker dead")
	ringReplicas := fs.Int("ring-replicas", cluster.DefaultRingReplicas, "virtual nodes per worker on the placement ring (coordinator role)")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "peer cache fetch / heartbeat request timeout (worker role)")
	version := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, obs.Version("sparseadaptd"))
		return 0
	}

	var check flagcheck.Check
	check.NonNegative("workers", *workers)
	check.Positive("queue", *queue)
	check.NonNegativeFloat("rate", *rate)
	check.Positive("burst", *burst)
	check.PositiveInt64("max-body", *maxBody)
	check.PositiveDuration("job-timeout", *jobTimeout)
	check.Positive("max-jobs", *maxJobs)
	check.Positive("cache-entries", *cacheEntries)
	check.PositiveDuration("drain-timeout", *drainTimeout)
	check.Positive("max-attempts", *maxAttempts)
	check.NonNegative("tenant-max-inflight", *tenantInflight)
	check.NonNegativeFloat("tenant-rate", *tenantRate)
	check.PositiveFloat("tenant-burst", *tenantBurst)
	check.PositiveDuration("hb-interval", *hbInterval)
	check.PositiveDuration("hb-timeout", *hbTimeout)
	check.Positive("ring-replicas", *ringReplicas)
	check.PositiveDuration("peer-timeout", *peerTimeout)
	if err := check.Err(); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}

	chaos, err := fault.ParseChaosSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	if !chaos.IsZero() {
		fmt.Fprintf(stderr, "warning: chaos injection active (%s) — not for production\n", chaos)
	}

	scfg := server.Config{
		Sched: sched.Config{
			Workers: *workers, QueueDepth: *queue,
			JobTimeout: *jobTimeout, MaxJobs: *maxJobs, MaxAttempts: *maxAttempts,
		},
		RatePerSec: *rate, Burst: *burst,
		MaxBodyBytes: *maxBody, StoreDir: *storeDir,
		CacheDir: *cacheDir, CacheEntries: *cacheEntries,
		TenantQuota: tenant.Quota{MaxInflight: *tenantInflight, RatePerSec: *tenantRate, Burst: *tenantBurst},
		Chaos:       fault.NewChaos(chaos),
	}
	if scfg.TenantQuota.Enabled() {
		fmt.Fprintln(stdout, scfg.TenantQuota.String())
	}

	// Bind before constructing the node: a worker's advertise address
	// defaults to whatever port the kernel picked.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	var (
		app node
		srv *server.Server // the fronting job server of whichever role
	)
	switch *role {
	case "":
		s, err := server.New(scfg)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		app, srv = s, s
	case "coordinator":
		c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Server:            scfg,
			HeartbeatInterval: *hbInterval,
			HeartbeatTimeout:  *hbTimeout,
			RingReplicas:      *ringReplicas,
		})
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		app, srv = c, c.Server()
	case "worker":
		if *coordinator == "" {
			fmt.Fprintln(stderr, "error: -role worker requires -coordinator")
			return 2
		}
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		id := *nodeID
		if id == "" {
			id = adv
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Server:            scfg,
			ID:                id,
			Advertise:         adv,
			Coordinator:       *coordinator,
			HeartbeatInterval: *hbInterval,
			PeerTimeout:       *peerTimeout,
		})
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		app, srv = w, w.Server()
	default:
		fmt.Fprintf(stderr, "error: unknown -role %q (coordinator|worker or empty)\n", *role)
		return 2
	}

	if n := srv.Recovered(); n > 0 {
		fmt.Fprintf(stdout, "recovered %d interrupted jobs from the journal\n", n)
	}
	app.Start()
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	// The e2e harness parses this line to find the bound port; keep the
	// format stable.
	fmt.Fprintf(stdout, "sparseadaptd listening on http://%s\n", ln.Addr())

	ctx, stop := sigctx.WithSignals(context.Background(), stderr)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "error:", err)
		return 1
	case <-ctx.Done():
	}

	// Drain jobs first so SSE subscribers receive their terminal events,
	// then close the HTTP side (Shutdown waits for those streams to end).
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := app.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "drain:", err)
		code = 1
	}
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "shutdown:", err)
		code = 1
	}
	// Compact and close the journal only after the drain: every job that
	// finished has its terminal record on disk, so the next boot recovers
	// nothing. (After a crash this never runs — that is what recovery is
	// for.)
	if err := app.Close(); err != nil {
		fmt.Fprintln(stderr, "store:", err)
		code = 1
	}
	fmt.Fprintln(stdout, "shutdown complete")
	return code
}
