package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/graph"
	"sparseadapt/internal/host"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

// The layer probe re-runs a seeded sample of a workload's own inputs in
// this process, from outside the program: matrix.ReadMatrixMarket → the
// kernel → host.Runner, then times Ensemble.Predict and Machine.Reconfigure
// over the run's epoch log. Each step is a span, so the traced run reports
// per-layer times on every workload's inputs. The daemon workloads also use
// it as a correctness gate: a job re-run here must match the daemon's
// result byte for byte.
//
// A probe job is described by the daemon's own request type, and run the
// way the daemon runs it (internal/server's runJob), so the two agree.

// models trains the controller models probe jobs need, once per (scale,
// seed, kernel, objective), timing the sweep and the fit as spans.
type models struct {
	mu sync.Mutex
	m  map[string]*core.Ensemble
}

func (ms *models) get(ctx context.Context, tr *tracer, parent int, sc experiments.Scale, kernel string, mode power.Mode) (*core.Ensemble, error) {
	key := fmt.Sprintf("%g/%d/%s/%d", sc.Train, sc.Seed, kernel, mode)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.m == nil {
		ms.m = map[string]*core.Ensemble{}
	}
	if ens, ok := ms.m[key]; ok {
		return ens, nil
	}
	// The same sweep experiments.Model runs, which is what the daemon and
	// the CLI train.
	sw := trainer.DefaultSweep(kernel, config.CacheMode, sc.Train)
	sw.Chip = sc.Chip
	sw.Seed = sc.Seed
	var ds *trainer.Dataset
	eng := engine.New(engine.Options{Workers: runtime.NumCPU()})
	if _, err := tr.timed(parent, "trainer.sweep", key, func(int) error {
		var err error
		ds, err = trainer.GenerateEngine(ctx, eng, sw, mode, 1)
		return err
	}); err != nil {
		return nil, err
	}
	var ens *core.Ensemble
	if _, err := tr.timed(parent, "ml.fit", key, func(int) error {
		var err error
		ens, err = trainer.Train(ds, ml.DefaultTreeParams())
		return err
	}); err != nil {
		return nil, err
	}
	ms.m[key] = ens
	return ens, nil
}

// probeJob is one input to re-run in process: the request, the request
// ID its spans carry and, when the daemon ran it too, the daemon's host
// result it must reproduce.
type probeJob struct {
	id   string
	req  sched.JobRequest
	want string
}

// runInProcess executes req the way the daemon does and returns the job's
// host result. Spans: matrix.parse, kernels.trace, host.run (counting the
// memory events it replayed), then core.predict and sim.reconfigure per
// epoch of a replay of the run's epoch log.
func runInProcess(ctx context.Context, tr *tracer, ms *models, job probeJob) (host.Result, error) {
	req := job.req
	if err := req.Validate(); err != nil {
		return host.Result{}, err
	}
	root := tr.begin(0, "probe.job", job.id)
	defer tr.end(root)
	sc, err := scaleNamed(req.Scale)
	if err != nil {
		return host.Result{}, err
	}
	if req.Seed != 0 {
		sc.Seed = req.Seed
	}
	off, modelKernel, err := buildOffload(tr, root, job.id, req, sc)
	if err != nil {
		return host.Result{}, err
	}
	start := map[string]config.Config{"baseline": config.Baseline, "best-avg": config.BestAvgCache, "max": config.MaxCfg}[req.Config]
	runner := host.NewRunner(sc.Chip, sc.BW, sc.Epoch)
	mem := countMemEvents(off.Workload.Trace)

	var res host.Result
	var run core.RunResult
	var model *core.Ensemble
	opts := core.Options{}
	if req.Mode != sched.ModeStatic {
		mode := power.EnergyEfficient
		if req.OptMode == "pp" {
			mode = power.PowerPerformance
		}
		if model, err = ms.get(ctx, tr, root, sc, modelKernel, mode); err != nil {
			return host.Result{}, err
		}
		opts = controlOptions(req, modelKernel, sc)
	}
	runID := tr.begin(root, "host.run", job.id)
	switch req.Mode {
	case sched.ModeStatic:
		res, run, err = runner.RunStaticFull(ctx, start, off)
	case sched.ModeAdaptive:
		res, run, err = runner.RunAdaptiveFull(ctx, model, opts, start, off)
	case sched.ModeResilient:
		spec, perr := fault.ParseSpec(req.Faults)
		if perr != nil {
			return host.Result{}, perr
		}
		ropts := core.DefaultResilientOptions()
		ropts.Options = opts
		var inject core.FaultInjector
		if !spec.IsZero() {
			inject = fault.New(spec)
		}
		res, run, err = runner.RunResilient(model, ropts, start, off, inject)
	case sched.ModeBatch:
		offs := make([]host.Offload, req.Count)
		for i := range offs {
			offs[i] = off
		}
		var all []host.Result
		all, err = runner.RunBatchAdaptive(ctx, nil, model, opts, start, offs)
		if err == nil && len(all) > 0 {
			res = all[0]
		}
		mem *= req.Count
	}
	tr.count(runID, mem)
	tr.end(runID)
	if err != nil {
		return host.Result{}, err
	}
	if model != nil && len(run.Epochs) > 0 {
		replayDecisions(tr, root, job.id, sc, start, model, off.Workload, opts.EpochScale, run.Epochs)
	}
	return res, nil
}

// replayDecisions re-executes a run's epochs with the configurations its
// log recorded, timing each Machine.Reconfigure the log implies and an
// Ensemble.Predict on every epoch's counters.
func replayDecisions(tr *tracer, parent int, req string, sc experiments.Scale, start config.Config, model *core.Ensemble, w kernels.Workload, epochScale float64, log []core.EpochLog) {
	if tr == nil {
		return
	}
	m := sim.New(sc.Chip, sc.BW, start)
	m.BindTrace(w.Trace)
	eps := w.Epochs(epochScale)
	for i, ep := range eps {
		if i >= len(log) {
			break
		}
		if next := log[i].Config; next != m.Config() {
			id := tr.begin(parent, "sim.reconfigure", req)
			m.Reconfigure(next) //nolint:errcheck // a refused reconfiguration is timed all the same
			tr.end(id)
		}
		r := m.RunEpoch(ep)
		id := tr.begin(parent, "core.predict", req)
		model.Predict(m.Config(), r.Counters)
		tr.end(id)
	}
}

// buildOffload parses or generates the input matrix and traces the
// requested kernel on it, as the daemon's job path does.
func buildOffload(tr *tracer, parent int, req string, r sched.JobRequest, sc experiments.Scale) (host.Offload, string, error) {
	var am *matrix.COO
	if r.MatrixMarket != "" {
		_, err := tr.timed(parent, "matrix.parse", req, func(int) error {
			var err error
			am, err = matrix.ReadMatrixMarket(strings.NewReader(r.MatrixMarket))
			return err
		})
		if err != nil {
			return host.Offload{}, "", fmt.Errorf("parsing matrix_market: %w", err)
		}
	} else {
		entry, err := matrix.Entry(r.Matrix)
		if err != nil {
			return host.Offload{}, "", err
		}
		am = entry.Generate(sc.Matrix, sc.Seed)
	}
	a := am.ToCSC()
	dim := a.Cols
	modelKernel := r.Kernel
	bytesIn, bytesOut := host.InputBytes(a.NNZ(), dim), 0
	var wl kernels.Workload
	id := tr.begin(parent, "kernels.trace", req)
	var err error
	switch r.Kernel {
	case "spmspm":
		var out *matrix.CSR
		out, wl, err = kernels.SpMSpM(a, am.ToCSR().Transpose(), sc.Chip.NGPE(), sc.Chip.Tiles)
		bytesIn *= 2
		if out != nil {
			bytesOut = host.InputBytes(out.NNZ(), dim)
		}
	case "spmspv":
		x := matrix.RandomVec(rand.New(rand.NewSource(sc.Seed+1)), dim, 0.5)
		var y *matrix.SparseVec
		y, wl, err = kernels.SpMSpV(a, x, sc.Chip.NGPE(), sc.Chip.Tiles)
		bytesIn += host.InputBytes(x.NNZ(), dim)
		if y != nil {
			bytesOut = y.NNZ() * 12
		}
	case "bfs":
		_, wl, err = graph.BFS(a, 0, sc.Chip.NGPE(), sc.Chip.Tiles)
		bytesOut = dim * 8
		modelKernel = "spmspv"
	case "sssp":
		_, wl, err = graph.SSSP(a, 0, sc.Chip.NGPE(), sc.Chip.Tiles)
		bytesOut = dim * 8
		modelKernel = "spmspv"
	default:
		err = fmt.Errorf("unknown kernel %q", r.Kernel)
	}
	if err == nil {
		tr.count(id, len(wl.Trace.Events))
	}
	tr.end(id)
	if err != nil {
		return host.Offload{}, "", err
	}
	return host.Offload{Workload: wl, BytesIn: bytesIn, BytesOut: bytesOut}, modelKernel, nil
}

// controlOptions is the daemon's policy selection for a request.
func controlOptions(req sched.JobRequest, modelKernel string, sc experiments.Scale) core.Options {
	opts := core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: sc.Epoch}
	if req.Tolerance != 0 {
		opts.Tolerance = req.Tolerance
	}
	if modelKernel == "spmspm" {
		opts = core.Options{Policy: core.Conservative, EpochScale: sc.Epoch}
	}
	switch req.Policy {
	case "conservative":
		opts.Policy = core.Conservative
	case "aggressive":
		opts.Policy = core.Aggressive
	case "hybrid":
		opts.Policy = core.Hybrid
	}
	return opts
}

func scaleNamed(name string) (experiments.Scale, error) {
	switch name {
	case "test":
		return experiments.TestScale(), nil
	case "small":
		return experiments.SmallScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("probe: unsupported scale %q", name)
}

// runProbe re-runs jobs in process under tr.
func runProbe(ctx context.Context, tr *tracer, jobs []probeJob) error {
	var ms models
	for _, job := range jobs {
		if _, err := runInProcess(ctx, tr, &ms, job); err != nil {
			return fmt.Errorf("probe %s: %w", job.id, err)
		}
	}
	return nil
}

// probeForGrid samples one adaptive job per structure and kernel from the
// grid's inputs, at the daemon's test scale.
func probeForGrid(inputs []gridInput) []probeJob {
	var jobs []probeJob
	seen := map[string]bool{}
	for _, in := range inputs {
		k := in.kernel + "/" + strings.Split(in.name, "/")[1]
		if seen[k] {
			continue
		}
		seen[k] = true
		jobs = append(jobs, probeJob{id: "probe/" + in.name, req: sched.JobRequest{
			Mode: sched.ModeAdaptive, Kernel: in.kernel, MatrixMarket: marketText(in.a), Scale: "test",
		}})
	}
	return jobs
}

// addTraceLayers derives the per-layer metrics from the spans the probe
// and the set-up phases recorded: medians of each layer's call times, the
// kernel tracer's event rate, and replay time per memory event.
func addTraceLayers(m metrics, spans []span) {
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	times := func(name string, scale func(time.Duration) float64) []float64 {
		var vs []float64
		for _, s := range byName[name] {
			vs = append(vs, scale(s.End-s.Start))
		}
		return vs
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	for _, l := range []struct {
		span, metric, unit string
		scale              func(time.Duration) float64
	}{
		{"matrix.parse", "matrix.parse_ms.p50", "ms", msOf},
		{"kernels.trace", "kernels.trace_ms.p50", "ms", msOf},
		{"host.run", "host.run_ms.p50", "ms", msOf},
		{"core.predict", "core.predict_us.p50", "us", usOf},
		{"sim.reconfigure", "sim.reconfigure_us.p50", "us", usOf},
		{"trainer.sweep", "trainer.sweep_s", "s", sec},
		{"ml.fit", "ml.fit_s", "s", sec},
	} {
		if vs := times(l.span, l.scale); len(vs) > 0 {
			m.set(l.metric, median(vs), l.unit, len(vs), "p50")
		}
	}
	if vs := times("host.run", msOf); len(vs) > 0 {
		v, label := tail(vs, 99)
		m.set("host.run_ms.tail", v, "ms", len(vs), label)
	}
	var events int
	var build time.Duration
	for _, s := range byName["kernels.trace"] {
		events += s.Count
		build += s.End - s.Start
	}
	if events > 0 && build > 0 {
		m.set("kernels.mevents_per_s", float64(events)/build.Seconds()/1e6, "Mevents/s", len(byName["kernels.trace"]), "events traced per second")
	}
	// oracle-grid measures replay from the engine's task spans; elsewhere it
	// is the probe's host.run self time.
	if _, ok := m["sim.ns_per_mem_event"]; ok {
		return
	}
	self := selfTimes(spans)
	var mem int
	var replay time.Duration
	for _, s := range byName["host.run"] {
		mem += s.Count
		replay += self[s.ID]
	}
	if mem > 0 {
		m.set("sim.ns_per_mem_event", float64(replay.Nanoseconds())/float64(mem), "ns", len(byName["host.run"]), "host.run self time ÷ memory events replayed")
		m.set("sim.mem_events", float64(mem), "count", len(byName["host.run"]), "replayed by the probe")
	}
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssMB is the peak resident set of an exited child, from its rusage.
func rssMB(sysUsage any) float64 {
	if ru, ok := sysUsage.(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// hostJSON is the canonical byte form host results are compared in.
func hostJSON(r host.Result) string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // host.Result is plain numbers
	}
	return string(data)
}
