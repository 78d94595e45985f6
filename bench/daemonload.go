package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sched"
)

// Frozen open-loop rates and latency limits of the daemon workloads. The
// daemon keeps every job's request and event log, so daemon-fresh's rate
// is bounded by the daemon's memory rather than by its CPU (README.md).
const (
	freshRate    = 120.0 // jobs/s
	freshLimit   = 250 * time.Millisecond
	cachedRate   = 150.0
	cachedLimit  = 25 * time.Millisecond
	cachedPool   = 32
	daemonSetups = 5
	// freshSampleEvery: every this-many-th daemon-fresh job is re-run in
	// process and must match the daemon's result byte for byte.
	freshSampleEvery = 20
	// tailWindow and tailWindowPct define windowTail: at the frozen rates
	// a window holds 240–300 jobs, 12–15 of them beyond its p95.
	tailWindow    = 2 * time.Second
	tailWindowPct = 95.0
)

// modelWarmups are the jobs set-up submits so the daemon trains its four
// controller models (kernel × objective) before the timed window.
var modelWarmups = []sched.JobRequest{
	{Kernel: "spmspv", OptMode: "ee"}, {Kernel: "spmspv", OptMode: "pp"},
	{Kernel: "spmspm", OptMode: "ee"}, {Kernel: "spmspm", OptMode: "pp"},
}

// daemonLoad describes one open-loop daemon workload.
type daemonLoad struct {
	rate   float64
	limit  time.Duration
	bodies [][]byte // the timed window's job requests as JSON, in send order
	// warm is the workload's own set-up after the models are warm; it
	// returns the jobs' statuses for the workload's checks.
	warm func(ctx context.Context, d *daemon) ([]sched.JobStatus, error)
	// check verifies the window's results and returns the jobs to re-run
	// in process (with the daemon's results they must match).
	check func(res *result, sts []sched.JobStatus, warm []sched.JobStatus) []probeJob
}

func encodeAll(reqs []sched.JobRequest) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = encode(r)
	}
	return out
}

func encode(r sched.JobRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a request is plain strings and numbers
	}
	return b
}

// daemonPhase is one timed window against a freshly set-up daemon.
type daemonPhase struct {
	sends  []sendRecord
	sts    []sched.JobStatus
	warm   []sched.JobStatus
	before map[string]float64 // /metrics at the window's start
	after  map[string]float64 // and after every job finished
	rssMB  float64
}

// setUpDaemon starts a daemon and brings it to the state the timed window
// starts from: ready, models trained, and the workload's own warm-up done.
func setUpDaemon(ctx context.Context, opt options, load *daemonLoad) (*daemon, []sched.JobStatus, error) {
	d, err := startDaemon(ctx, filepath.Join(opt.binDir, "sparseadaptd"), len(load.bodies)+len(modelWarmups)+cachedPool+64)
	if err != nil {
		return nil, nil, err
	}
	_, err = d.runJobs(ctx, encodeAll(modelWarmups))
	var warm []sched.JobStatus
	if err == nil && load.warm != nil {
		warm, err = load.warm(ctx, d)
	}
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, warm, nil
}

// runWindow sends the load open-loop, collects every job once the send
// window has closed, and stops the daemon.
func runWindow(ctx context.Context, d *daemon, load *daemonLoad) (*daemonPhase, error) {
	p := &daemonPhase{}
	err := p.collect(ctx, d, load)
	p.rssMB = d.stop()
	return p, err
}

func (p *daemonPhase) collect(ctx context.Context, d *daemon, load *daemonLoad) error {
	var err error
	if p.before, err = d.scrape(ctx); err != nil {
		return err
	}
	p.sends = openLoop(ctx, d, load.bodies, load.rate)
	ids := make([]string, len(p.sends))
	for i, s := range p.sends {
		if s.err == nil && s.code == http.StatusAccepted {
			ids[i] = s.id
		}
	}
	if p.sts, err = d.await(ctx, ids); err != nil {
		return err
	}
	p.after, err = d.scrape(ctx)
	return err
}

func runDaemonWorkload(ctx context.Context, opt options, res *result, load *daemonLoad) error {
	// Set-up, repeated on fresh daemons; the last one serves the window.
	var setups []float64
	var d *daemon
	var warm []sched.JobStatus
	var err error
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, warm, err = setUpDaemon(ctx, opt, load); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Metrics.set("setup_s", median(setups), "s", len(setups), "median of set-ups: spawn → ready → models → warm-up")
	p, err := runWindow(ctx, d, load)
	if err != nil {
		return err
	}
	p.warm = warm
	summarizeWindow(res, load, p)
	checkPinned(res, opt.seed, len(load.bodies))
	// A traced run records nothing while the window runs: the job spans are
	// built afterwards from the generator's and the daemon's timestamps, so
	// the window and its end-to-end metrics are those of an untraced run.
	var tr *tracer
	if opt.traced {
		tr = newTracer()
		daemonLayers(res.Metrics, p)
		traceJobs(tr, p)
	}
	// Re-run the sampled jobs in process: each must match the daemon.
	ms := &models{}
	for _, job := range load.check(res, p.sts, p.warm) {
		got, err := runInProcess(ctx, tr, ms, job)
		if err != nil {
			return fmt.Errorf("re-running %s in process: %w", job.id, err)
		}
		if want := job.want; hostJSON(got) != want {
			res.problem("%s: in-process result %s differs from the daemon's %s", job.id, hostJSON(got), want)
		}
	}
	if !opt.traced {
		return nil
	}
	spans := tr.snapshot()
	addTraceLayers(res.Metrics, spans)
	otherMs(res.Metrics, spans, p)
	return writeChrome(traceFile(opt, res.Workload), spans)
}

// summarizeWindow computes the end-to-end metrics and the digest of one
// window.
func summarizeWindow(res *result, load *daemonLoad, p *daemonPhase) {
	var lat []float64
	ok := 0
	start, end := p.sends[0].due, p.sends[0].due
	dg := newDigest()
	for i, s := range p.sends {
		res.Attempted++
		st := p.sts[i]
		if s.err != nil || s.code != http.StatusAccepted || st.State != sched.StateDone || st.Result == nil {
			res.Failed++
			dg.bytes([]byte("failed\n"))
			continue
		}
		l := st.FinishedAt.Sub(s.due)
		lat = append(lat, msOf(l))
		if l <= load.limit {
			ok++
		}
		if st.FinishedAt.After(end) {
			end = st.FinishedAt
		}
		dg.bytes([]byte(hostJSON(st.Result.Host) + "\n"))
	}
	res.Digest = dg.String()
	if res.Failed > 0 {
		res.problem("%d of %d jobs failed or were refused", res.Failed, res.Attempted)
	}
	if len(lat) == 0 {
		return
	}
	res.Metrics.set("wall_s", end.Sub(start).Seconds(), "s", len(p.sends), "first due send → last job finished")
	latencySummary(res.Metrics, "p50_ms", "p99_ms", lat, 99)
	res.Metrics.set("tail_ms", windowTail(p), "ms", len(lat), fmt.Sprintf("median of per-%s-window p%g", tailWindow, tailWindowPct))
	res.Metrics.set("slo_ok_ratio", float64(ok)/float64(len(p.sends)), "fraction", len(p.sends), fmt.Sprintf("done within %s", load.limit))
	res.Metrics.set("peak_rss_mb", p.rssMB, "MB", 1, "daemon process")
}

// windowTail is the daemon workloads' tail latency: the median over
// consecutive tailWindow windows of send times of each window's
// tailWindowPct latency. One stall then moves one window, not the run;
// a whole-run p99 over a run's thousand-odd jobs rests on a dozen samples
// and repeated only within 15–20% on the reference machine.
func windowTail(p *daemonPhase) float64 {
	windows := map[int][]float64{}
	for i, s := range p.sends {
		if st := p.sts[i]; st.State == sched.StateDone {
			w := int(s.due.Sub(p.sends[0].due) / tailWindow)
			windows[w] = append(windows[w], msOf(st.FinishedAt.Sub(s.due)))
		}
	}
	var tails []float64
	for _, lat := range windows {
		tails = append(tails, percentile(lat, tailWindowPct))
	}
	return median(tails)
}

// daemonLayers adds the per-layer metrics of a traced window: the
// generator's submit round trips and lateness, the daemon's queue and
// execution times from its job timestamps, and its engine counters over
// the window.
func daemonLayers(m metrics, p *daemonPhase) {
	var submit, late, queue, exec []float64
	rejected := 0
	for i, s := range p.sends {
		submit = append(submit, msOf(s.submit))
		late = append(late, msOf(max(s.sent.Sub(s.due), 0)))
		if s.code == http.StatusTooManyRequests || s.code == http.StatusServiceUnavailable {
			rejected++
		}
		if st := p.sts[i]; st.State == sched.StateDone {
			queue = append(queue, msOf(st.StartedAt.Sub(st.CreatedAt)))
			exec = append(exec, msOf(st.FinishedAt.Sub(st.StartedAt)))
		}
	}
	latencySummary(m, "server.submit_ms.p50", "server.submit_ms.tail", submit, 99)
	latencySummary(m, "sched.queue_ms.p50", "sched.queue_ms.tail", queue, 99)
	latencySummary(m, "sched.exec_ms.p50", "sched.exec_ms.tail", exec, 99)
	lateTail, label := tail(late, 99)
	m.set("bench.gen_late_ms.tail", lateTail, "ms", len(late), label)
	m.set("server.rejected", float64(rejected), "count", len(p.sends), "429/503 responses")
	delta := func(name string) float64 { return p.after[name] - p.before[name] }
	window := p.sends[len(p.sends)-1].due.Sub(p.sends[0].due).Seconds()
	if n := delta("engine_task_seconds_count"); n > 0 {
		m.set("engine.task_ms.mean", delta("engine_task_seconds_sum")/n*1000, "ms", int(n), "")
		m.set("engine.busy_ratio", delta("engine_task_seconds_sum")/(window*p.after["engine_workers"]), "fraction", int(n), "task time ÷ (window × workers)")
	}
	hits, misses := delta("engine_cache_hits_total"), delta("engine_cache_misses_total")
	if hits+misses > 0 {
		m.set("engine.cache_hit_ratio", hits/(hits+misses), "fraction", int(hits+misses), "")
	}
	if n := delta("engine_cache_hit_seconds_count"); n > 0 {
		m.set("engine.cache_hit_ms", delta("engine_cache_hit_seconds_sum")/n*1000, "ms", int(n), "mean")
	}
}

// traceJobs records each job of a window as a span from its due time to
// its finish, with the generator's lateness, the POST round trip and the
// daemon's queue and execution times as children.
func traceJobs(tr *tracer, p *daemonPhase) {
	for i, s := range p.sends {
		st := p.sts[i]
		end := s.sent.Add(s.submit)
		if st.State == sched.StateDone {
			end = st.FinishedAt
		}
		req := jobName(i)
		job := tr.add(0, "job", req, s.due, end)
		tr.add(job, "bench.gen_late", req, s.due, s.sent)
		tr.add(job, "server.submit", req, s.sent, s.sent.Add(s.submit))
		if st.State == sched.StateDone {
			tr.add(job, "sched.queue", req, st.CreatedAt, st.StartedAt)
			tr.add(job, "sched.exec", req, st.StartedAt, st.FinishedAt)
		}
	}
}

// otherMs is the daemon's execution time the in-process layers do not
// account for: per re-run job, its sched.exec time minus the in-process
// matrix.parse, kernels.trace and host.run times (predict and reconfigure
// run inside host.run).
func otherMs(m metrics, spans []span, p *daemonPhase) {
	byReq := map[string]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "matrix.parse", "kernels.trace", "host.run":
			byReq[s.Req] += s.End - s.Start
		}
	}
	var other []float64
	for i, st := range p.sts {
		if in, ok := byReq[jobName(i)]; ok && st.State == sched.StateDone {
			other = append(other, msOf(st.FinishedAt.Sub(st.StartedAt)-in))
		}
	}
	if len(other) > 0 {
		m.set("server.other_ms.p50", median(other), "ms", len(other), "sched.exec − in-process parse, trace and run")
	}
}

func jobName(i int) string { return fmt.Sprintf("job-%d", i) }

// jobType is one slot of the daemon traffic mix: kernel, run mode,
// objective, and the shape of its input matrix: size and dimension
// quantiles and structure class.
type jobType struct {
	kernel, mode, opt string
	q, dimQ           float64
	structure         string
}

// goldenRatio spreads dimension quantiles evenly yet uncorrelated with the
// size quantiles they are paired with.
const goldenRatio = 1.618033988749895

// mixBlock returns the job types of one block of the traffic mix, in a
// fixed order: kernels spmspv/spmspm/bfs/sssp 40/20/20/20, each kernel's
// share split across modes adaptive/static/resilient/batch 70/15/10/5,
// objectives alternating ee/pp, and within each (kernel, mode) group
// sizes and dimensions at evenly spaced quantiles and structures in turn.
// Every block carries exactly this mix, so seeds differ only in where the
// nonzeros fall and the order of jobs, and the load's aggregate work
// holds steady from seed to seed.
func mixBlock() []jobType {
	kernels := []struct {
		name  string
		share int
	}{{"spmspv", 40}, {"spmspm", 20}, {"bfs", 20}, {"sssp", 20}}
	modes := []struct {
		name    string
		percent int
	}{{sched.ModeAdaptive, 70}, {sched.ModeStatic, 15}, {sched.ModeResilient, 10}, {sched.ModeBatch, 5}}
	var out []jobType
	for _, k := range kernels {
		for _, m := range modes {
			n := k.share * m.percent / 100
			for i := 0; i < n; i++ {
				q := (float64(i) + 0.5) / float64(n)
				out = append(out, jobType{
					kernel: k.name, mode: m.name, opt: []string{"ee", "pp"}[len(out)%2],
					q: q, dimQ: math.Mod(q*goldenRatio, 1), structure: structures[i%len(structures)],
				})
			}
		}
	}
	return out
}

// request builds the job of type t, without its input matrix.
func (t jobType) request(rng *rand.Rand) sched.JobRequest {
	req := sched.JobRequest{Kernel: t.kernel, Mode: t.mode, OptMode: t.opt, Scale: "test"}
	switch t.mode {
	case sched.ModeResilient:
		req.Faults = fmt.Sprintf("nan=0.1,stuck=0.05,seed=%d", 1+rng.Intn(1000))
	case sched.ModeBatch:
		req.Count = 4
	}
	return req
}

// upload draws t's input matrix as a MatrixMarket body with nnz from lo
// to hi (log-uniform, so most jobs are small and a few large) and
// dimension 500–2000, at t's quantiles. SpMSpM computes A·Aᵀ, whose work
// grows with the sum of squared column counts, so its uploads are a
// quarter the size and never R-MAT: one power-law hub column alone would
// dominate the window.
func (t jobType) upload(rng *rand.Rand, lo, hi int) string {
	nnz := int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), t.q)))
	structure := t.structure
	if t.kernel == "spmspm" {
		nnz /= 4
		if structure == "rmat" {
			structure = "uniform"
		}
	}
	dim := 500 + int(1500*t.dimQ)
	return marketText(shortValues(genMatrix(rng, structure, dim, nnz)))
}

func runDaemonFresh(ctx context.Context, opt options, res *result) error {
	n := int(freshRate * float64(opt.seconds))
	rng := seeded(opt.seed, "daemon-fresh")
	block := mixBlock()
	load := &daemonLoad{rate: freshRate, limit: freshLimit}
	sampled := map[int]sched.JobRequest{}
	for len(load.bodies) < n {
		for _, i := range rng.Perm(len(block)) {
			if len(load.bodies) == n {
				break
			}
			req := block[i].request(rng)
			req.MatrixMarket = block[i].upload(rng, 2000, 16000)
			if len(load.bodies)%freshSampleEvery == 0 {
				sampled[len(load.bodies)] = req
			}
			load.bodies = append(load.bodies, encode(req))
		}
	}
	load.check = func(res *result, sts, _ []sched.JobStatus) []probeJob {
		var jobs []probeJob
		for i := 0; i < n; i += freshSampleEvery {
			if st := sts[i]; st.Result != nil {
				jobs = append(jobs, probeJob{id: jobName(i), req: sampled[i], want: hostJSON(st.Result.Host)})
			}
		}
		return jobs
	}
	return runDaemonWorkload(ctx, opt, res, load)
}

func runDaemonCached(ctx context.Context, opt options, res *result) error {
	// The pool spreads the traffic mix over 32 jobs: half name one of the
	// sixteen R dataset entries, which the daemon generates itself, half
	// upload a small seed-drawn matrix.
	rng := seeded(opt.seed, "daemon-cached")
	block := mixBlock()
	var entries []string
	for _, id := range matrix.IDs() {
		if strings.HasPrefix(id, "R") {
			entries = append(entries, id)
		}
	}
	pool := make([]sched.JobRequest, cachedPool)
	for i := range pool {
		t := block[i*len(block)/cachedPool]
		pool[i] = t.request(rng)
		if i%2 == 0 {
			pool[i].Matrix = entries[i/2%len(entries)]
		} else {
			pool[i].MatrixMarket = t.upload(rng, 1000, 2000)
		}
	}
	n := int(cachedRate * float64(opt.seconds))
	// Each run of 32 consecutive jobs draws every pool entry once.
	draws := make([]int, 0, n)
	for len(draws) < n {
		draws = append(draws, rng.Perm(cachedPool)...)
	}
	draws = draws[:n]
	poolBodies := encodeAll(pool)
	load := &daemonLoad{rate: cachedRate, limit: cachedLimit}
	for _, d := range draws {
		load.bodies = append(load.bodies, poolBodies[d])
	}
	load.warm = func(ctx context.Context, d *daemon) ([]sched.JobStatus, error) {
		return d.runJobs(ctx, poolBodies)
	}
	load.check = func(res *result, sts, warm []sched.JobStatus) []probeJob {
		for i, st := range sts {
			if st.Result == nil {
				continue
			}
			if !st.CacheHit {
				res.problem("%s was not served from the cache", jobName(i))
			}
			if w := warm[draws[i]]; hostJSON(st.Result.Host) != hostJSON(w.Result.Host) {
				res.problem("%s differs from its warm-up result (pool entry %d)", jobName(i), draws[i])
			}
		}
		jobs := make([]probeJob, len(pool))
		for i := range pool {
			jobs[i] = probeJob{id: fmt.Sprintf("pool-%d", i), req: pool[i], want: hostJSON(warm[i].Result.Host)}
		}
		return jobs
	}
	return runDaemonWorkload(ctx, opt, res, load)
}
