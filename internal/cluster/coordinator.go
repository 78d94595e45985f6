package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// CoordinatorConfig sizes a coordinator node. The zero value is usable.
type CoordinatorConfig struct {
	// Server configures the fronting job server (queue, rate limits,
	// durable journal, SSE). Exec is overridden: a coordinator never runs
	// jobs locally.
	Server server.Config
	// HeartbeatInterval is the cadence workers are told to report at
	// (default 1s). HeartbeatTimeout declares a silent worker dead
	// (default 3× the interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// RingReplicas is the virtual-node count per worker on the placement
	// ring (default DefaultRingReplicas).
	RingReplicas int
}

func (c *CoordinatorConfig) defaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.HeartbeatInterval
	}
	if c.RingReplicas <= 0 {
		c.RingReplicas = DefaultRingReplicas
	}
}

// coordMetrics is the coordinator's slice of the cluster_* family
// (catalog in docs/OBSERVABILITY.md).
type coordMetrics struct {
	workersAlive      *obs.Gauge
	ringNodes         *obs.Gauge
	ringVNodes        *obs.Gauge
	workerJoins       *obs.Counter
	workerDeaths      *obs.Counter
	placements        *obs.Counter
	placementFailures *obs.Counter
	loadDeferrals     *obs.Counter
	jobsRequeued      *obs.Counter
	forwardLatency    *obs.Histogram
}

func newCoordMetrics(r *obs.Registry) coordMetrics {
	return coordMetrics{
		workersAlive:      r.Gauge("cluster_workers_alive", "worker nodes currently passing heartbeats"),
		ringNodes:         r.Gauge("cluster_ring_nodes", "nodes on the placement ring"),
		ringVNodes:        r.Gauge("cluster_ring_vnodes", "virtual points on the placement ring"),
		workerJoins:       r.Counter("cluster_worker_joins_total", "worker registrations (first heartbeat or rejoin after death)"),
		workerDeaths:      r.Counter("cluster_worker_deaths_total", "workers declared dead by heartbeat timeout"),
		placements:        r.Counter("cluster_placements_total", "job placement attempts on workers"),
		placementFailures: r.Counter("cluster_placement_failures_total", "placement attempts that failed (submit rejected, worker lost, no workers)"),
		loadDeferrals:     r.Counter("cluster_load_deferrals_total", "placements where load-aware ordering moved the ring owner off the front"),
		jobsRequeued:      r.Counter("cluster_jobs_requeued_total", "in-flight jobs sent back through retry after losing their worker"),
		forwardLatency:    r.Histogram("cluster_forward_latency_seconds", "wall time of one coordinator→worker placement round trip", sched.LatencyBuckets),
	}
}

// Coordinator is the cluster's front door: a full job server (admission,
// durable journal, SSE fan-out, retry/quarantine) whose execution
// function places each job on the worker owning its fingerprint on the
// consistent-hash ring, then relays the worker's epoch stream into the
// local job's event log. Worker death mid-job cancels the relay, and the
// scheduler's ordinary retry path re-places the job on the next ring
// successor — the same backoff and quarantine budget a local execution
// failure would consume.
type Coordinator struct {
	srv *server.Server
	cfg CoordinatorConfig
	mem *membership
	met coordMetrics

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator from cfg.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.defaults()
	if cfg.Server.Metrics == nil {
		cfg.Server.Metrics = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg:  cfg,
		mem:  newMembership(cfg.RingReplicas),
		met:  newCoordMetrics(cfg.Server.Metrics),
		stop: make(chan struct{}),
	}
	cfg.Server.Exec = c.place
	srv, err := server.New(cfg.Server)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	srv.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	srv.HandleFunc("GET /v1/cluster", c.handleTopology)
	return c, nil
}

// Server returns the fronting job server (HTTP handler, drain, journal).
func (c *Coordinator) Server() *server.Server { return c.srv }

// Start launches the worker pool and the heartbeat sweeper.
func (c *Coordinator) Start() {
	c.srv.Start()
	c.wg.Add(1)
	go c.sweepLoop()
}

// Drain shuts the job side down like server.Drain and stops the sweeper.
func (c *Coordinator) Drain(ctx context.Context) error {
	err := c.srv.Drain(ctx)
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	return err
}

// Close closes the durable store. Call after Drain.
func (c *Coordinator) Close() error { return c.srv.Close() }

func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			dead := c.mem.sweep(now, c.cfg.HeartbeatTimeout)
			c.met.workerDeaths.Add(int64(len(dead)))
			c.gauges()
		}
	}
}

func (c *Coordinator) gauges() {
	c.met.workersAlive.Set(float64(c.mem.alive()))
	c.met.ringNodes.Set(float64(c.mem.ring.Len()))
	c.met.ringVNodes.Set(float64(c.mem.ring.VNodes()))
}

// handleJoin is POST /v1/cluster/join — the worker heartbeat. Responds
// with the full membership table so workers can mirror the ring for
// peer-cache lookups.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var jr JoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&jr); err != nil {
		writeJSONError(w, http.StatusBadRequest, "invalid join body: %v", err)
		return
	}
	if jr.ID == "" || jr.Base == "" {
		writeJSONError(w, http.StatusBadRequest, "join requires id and base")
		return
	}
	if c.mem.upsert(jr.ID, jr.Base, jr.QueueDepth, time.Now()) {
		c.met.workerJoins.Inc()
	}
	c.gauges()
	writeJSONStatus(w, http.StatusOK, JoinResponse{
		IntervalSec: c.cfg.HeartbeatInterval.Seconds(),
		Members:     c.mem.snapshot(),
	})
}

// handleTopology is GET /v1/cluster — the fleet view.
func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSONStatus(w, http.StatusOK, map[string]any{
		"role":        "coordinator",
		"ring_nodes":  c.mem.ring.Len(),
		"ring_vnodes": c.mem.ring.VNodes(),
		"members":     c.mem.snapshot(),
	})
}

// place is the coordinator's sched.ExecFunc: one execution attempt =
// one placement on one worker. The candidate list is the ring's
// successor walk from the job fingerprint, so attempt 1 goes to the
// owner and each retry advances to the next distinct live worker — a
// dead or rejecting owner never strands a job while any worker lives.
func (c *Coordinator) place(ctx context.Context, j *sched.Job, attempt int) (*sched.JobResult, bool, error) {
	key := j.Request().Fingerprint()
	candidates := c.mem.ring.Successors(key, c.mem.ring.Len())
	if len(candidates) == 0 {
		c.met.placementFailures.Inc()
		return nil, false, fmt.Errorf("no live workers in the cluster")
	}
	// Load-aware ordering: heavily loaded candidates (per their last
	// heartbeat) defer behind lightly loaded ones, so a saturated owner is
	// skipped when a later successor is idle. Near-ties keep ring order —
	// cache affinity still decides when the fleet is evenly loaded.
	reordered := OrderByLoad(candidates, c.mem.depthOf)
	if reordered[0] != candidates[0] {
		c.met.loadDeferrals.Inc()
	}
	candidates = reordered
	id := candidates[(attempt-1)%len(candidates)]
	base, down, ok := c.mem.get(id)
	if !ok {
		// The sweeper declared it dead between the successor walk and now.
		c.met.placementFailures.Inc()
		return nil, false, fmt.Errorf("placement target died before submit")
	}
	c.met.placements.Inc()
	start := time.Now()

	// wctx aborts the placement the moment the worker is declared dead,
	// unblocking the SSE relay below so the attempt can fail fast and the
	// retry path re-place elsewhere.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-down:
			cancel()
		case <-wctx.Done():
		}
	}()

	cl := client.New(base)
	st, err := cl.SubmitWithRequestID(wctx, j.Request(), j.RequestID())
	if err != nil {
		c.met.placementFailures.Inc()
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		// %v, not %w: a worker-side context error must not read as OUR
		// cancellation, or the scheduler would finalize instead of retry.
		return nil, false, fmt.Errorf("worker %s rejected job: %v", id, err)
	}
	remoteID := st.ID

	// Relay the worker's event stream into the local job: epoch events are
	// re-emitted (the coordinator's own SSE subscribers see them with
	// coordinator-local sequence numbers, so Last-Event-ID resumption keeps
	// working across the hop) and the terminal status is captured.
	var final *sched.JobStatus
	serr := cl.Stream(wctx, remoteID, func(ev sched.Event) error {
		if ev.Type == "epoch" && ev.Epoch != nil {
			j.Emit(*ev.Epoch)
		}
		if ev.Status != nil && ev.Status.Terminal() {
			final = ev.Status
		}
		return nil
	})
	c.met.forwardLatency.Observe(time.Since(start).Seconds())

	if ctx.Err() != nil {
		// Our side canceled (client DELETE, drain deadline, job timeout):
		// propagate to the worker so it stops burning cycles, then report
		// the cancellation upward.
		c.cancelRemote(base, remoteID)
		return nil, false, ctx.Err()
	}
	if final == nil {
		// The stream broke before a terminal event — worker death or a
		// severed connection. Fail the attempt; retry re-places it.
		c.met.placementFailures.Inc()
		c.met.jobsRequeued.Inc()
		return nil, false, fmt.Errorf("worker %s lost mid-job: %v", id, serr)
	}
	switch final.State {
	case sched.StateDone:
		return final.Result, final.CacheHit, nil
	case sched.StateCanceled:
		// We did not cancel, so the worker shed it (drain): transient.
		return nil, false, fmt.Errorf("worker %s shed the job: %s", id, final.Error)
	default: // failed, quarantined
		return nil, false, fmt.Errorf("worker %s reported %s: %s", id, final.State, final.Error)
	}
}

// cancelRemote best-effort cancels an orphaned worker-side job.
func (c *Coordinator) cancelRemote(base, id string) {
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	client.New(base).Cancel(ctx, id) //nolint:errcheck // best-effort cleanup
}

// writeJSONStatus and writeJSONError mirror the server's response shape
// for the cluster routes (the server's helpers are unexported).
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSONStatus(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
