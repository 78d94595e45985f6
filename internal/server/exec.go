package server

import (
	"context"
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/host"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sched"
)

// localExec is the standalone execution function the scheduler drives: one
// attempt of one job, run through the engine as a single content-addressed
// task, which buys panic-to-error isolation (a panicking run — including
// an injected chaos panic — fails its own attempt, not the worker), the
// shared result cache (identical requests, and re-executions after a
// crash, are served without re-simulating) and engine_* accounting for
// free. On a cluster worker a PeerFetch hook is consulted first, so a
// fingerprint already computed elsewhere in the fleet is replayed from its
// transferred cache entry instead of re-simulated.
func (s *Server) localExec(ctx context.Context, j *sched.Job, attempt int) (*sched.JobResult, bool, error) {
	if s.cfg.Chaos.ExecPanic(j.ID(), attempt) {
		// Route the injected panic through the engine's panic-to-error
		// isolation under a per-(job, attempt) key, so the chaos failure
		// exercises the real recovery path but can never be masked by — or
		// leak into — the shared result cache.
		_, err := engine.Map(ctx, s.eng, []engine.Task[struct{}]{{
			Key: engine.NewHasher("chaos-panic/v1").Str(j.ID()).Int(attempt).Sum(),
			Compute: func(ctx context.Context) (struct{}, error) {
				panic(fmt.Sprintf("chaos: injected exec panic (job %s attempt %d)", j.ID(), attempt))
			},
		}})
		if err == nil {
			err = fmt.Errorf("chaos: injected exec panic (job %s attempt %d)", j.ID(), attempt)
		}
		return nil, false, err
	}
	key := j.Request().Fingerprint()
	s.peerFill(ctx, key)
	computed := false
	res, err := engine.Map(ctx, s.eng, []engine.Task[sched.JobResult]{{
		Key: key,
		Compute: func(ctx context.Context) (sched.JobResult, error) {
			computed = true
			return s.runJob(ctx, j, attempt)
		},
	}})
	if err != nil {
		return nil, false, err
	}
	r := res[0]
	hit := !computed
	if hit {
		// Cache-served result: this attempt computed nothing and so streamed
		// nothing; replay the retained trace so subscribers see the stream
		// a computed attempt would have sent.
		for _, rec := range r.Trace {
			j.Emit(rec)
		}
	}
	if computed && s.cfg.Chaos.CorruptCache(j.ID()) {
		s.corruptCacheEntry(key)
	}
	return &r, hit, nil
}

// peerFill consults the PeerFetch hook on a local cache miss and installs
// a fetched entry, so the engine.Map probe that follows hits without
// re-simulating. Best-effort: a failed or absent peer fetch just computes
// locally.
func (s *Server) peerFill(ctx context.Context, key engine.Key) {
	if s.cfg.PeerFetch == nil {
		return
	}
	cache := s.eng.Cache()
	if cache == nil {
		return
	}
	if _, ok := cache.Get(key); ok {
		return
	}
	if payload, ok := s.cfg.PeerFetch(ctx, key); ok {
		cache.Put(key, payload)
	}
}

// corruptCacheEntry is the chaos cache-corruption fault: flip bytes in the
// job's on-disk cache entry and evict the memory-tier copy, so the next
// identical request must take the checksum-verified disk read — which
// detects the damage, discards the entry and recomputes. The injected
// fault therefore costs work, never correctness; the soak test relies on
// that.
func (s *Server) corruptCacheEntry(key engine.Key) {
	cache := s.eng.Cache()
	if cache == nil {
		return
	}
	path := cache.DiskPath(key)
	if path == "" {
		return
	}
	fault.CorruptFile(path, 0xA5, 4) //nolint:errcheck // the entry may not exist; chaos is best-effort
	cache.DropMemory(key)
}

// chaosEpochEmitter wraps the job's epoch emitter with the mid-epoch kill
// fault: when chaos schedules a kill for this attempt, the Nth epoch event
// panics from inside the compute function — the closest a simulation gets
// to dying mid-run — which the engine's isolation converts into an attempt
// failure for the retry loop to absorb.
func (s *Server) chaosEpochEmitter(j *sched.Job, attempt int) func(obs.EpochRecord) {
	kill, ok := s.cfg.Chaos.KillAtEpoch(j.ID(), attempt)
	if !ok {
		return j.Emit
	}
	n := 0
	return func(rec obs.EpochRecord) {
		n++
		if n == kill {
			panic(fmt.Sprintf("chaos: injected mid-epoch kill at epoch %d (job %s attempt %d)", kill, j.ID(), attempt))
		}
		j.Emit(rec)
	}
}

// runJob performs the simulation a validated request describes. It is pure
// with respect to the request fingerprint: identical requests produce
// identical JobResults (the engine cache depends on this).
func (s *Server) runJob(ctx context.Context, j *sched.Job, attempt int) (sched.JobResult, error) {
	req := j.Request()
	emit := s.chaosEpochEmitter(j, attempt)
	sc, err := experiments.ScaleByName(req.Scale)
	if err != nil {
		return sched.JobResult{}, err
	}
	if req.Seed != 0 {
		sc.Seed = req.Seed
	}
	// Nested engine use is safe: each Map call gets its own worker set, so
	// a job's internal fan-out (model training sweeps, batch offloads) is
	// bounded per batch and cached in the same store.
	sc.Eng = s.eng

	// The first attempt runs on the door's parse of an upload; a retry or
	// a job restored from the journal parses the string again.
	am := j.TakeUpload()
	if am == nil {
		if am, err = inputMatrix(req, sc); err != nil {
			return sched.JobResult{}, err
		}
	}
	off, err := host.NewOffload(req.Kernel, am, sc.Seed, sc.Chip)
	if err != nil {
		return sched.JobResult{}, err
	}
	startCfg, err := configFor(req.Config)
	if err != nil {
		return sched.JobResult{}, err
	}

	// Per-job observer: controller_* metrics land in the shared registry
	// (instruments are atomic), the per-epoch trace is private to the job
	// and streamed live to SSE subscribers via the epoch hook. Observers are
	// single-run — never shared between concurrent jobs.
	tr := obs.NewTraceRecorder()
	tr.SetEpochHook(emit)
	observer := core.NewObserver(s.reg, tr)
	observer.TraceCounters = req.Counters

	runner := host.NewRunner(sc.Chip, sc.BW, sc.Epoch)
	runner.Obs = observer

	if req.Mode == sched.ModeStatic {
		hres, run, err := runner.RunStaticFull(ctx, startCfg, off)
		if err != nil {
			return sched.JobResult{}, err
		}
		// Static runs bypass the controller and its observer; synthesize the
		// epoch stream from the device-side log.
		recs := epochRecords(run, req.Counters)
		for _, rec := range recs {
			emit(rec)
		}
		return sched.JobResult{Host: hres, Epochs: len(run.Epochs), Reconfigs: run.Reconfig, Trace: recs}, nil
	}

	mode, err := power.ModeByName(req.OptMode)
	if err != nil {
		return sched.JobResult{}, err
	}
	modelKernel := host.ModelKernel(req.Kernel)
	model, err := experiments.Model(sc, modelKernel, config.CacheMode, mode)
	if err != nil {
		return sched.JobResult{}, fmt.Errorf("training model: %w", err)
	}
	// A request's tolerance 0 means the default, since JSON omits a zero
	// field; the CLI's -tolerance 0 means zero tolerance.
	tol := req.Tolerance
	if tol == 0 {
		tol = core.DefaultTolerance
	}
	opts := experiments.ControlOptions(modelKernel, req.Policy, tol, sc.Epoch)

	switch req.Mode {
	case sched.ModeAdaptive:
		hres, run, err := runner.RunAdaptiveFull(ctx, model, opts, startCfg, off)
		if err != nil {
			return sched.JobResult{}, err
		}
		return sched.JobResult{Host: hres, Epochs: len(run.Epochs), Reconfigs: run.Reconfig, Trace: tr.Epochs()}, nil

	case sched.ModeResilient:
		spec, err := fault.ParseSpec(req.Faults)
		if err != nil {
			return sched.JobResult{}, err
		}
		ropts := core.DefaultResilientOptions()
		ropts.Options = opts
		var inject core.FaultInjector
		if !spec.IsZero() {
			inject = fault.New(spec)
		}
		// The resilient controller manages its own recovery machinery and
		// runs to completion; cancellation takes effect between jobs, not
		// mid-run (documented limitation, see docs/SERVER.md).
		hres, run, err := runner.RunResilient(model, ropts, startCfg, off, inject)
		if err != nil {
			return sched.JobResult{}, err
		}
		return sched.JobResult{
			Host: hres, Epochs: len(run.Epochs), Reconfigs: run.Reconfig,
			Resilience: run.Resilience.String(), Trace: tr.Epochs(),
		}, nil

	case sched.ModeBatch:
		// Batch jobs fan N copies of the offload through the engine; each
		// offload runs its own controller over the shared read-only model
		// (see the Ensemble concurrency contract). The per-run observer
		// can't follow N concurrent runs, so batch jobs stream no epochs.
		runner.Obs = nil
		offs := make([]host.Offload, req.Count)
		for i := range offs {
			offs[i] = off
		}
		results, err := runner.RunBatchAdaptive(ctx, s.eng, model, opts, startCfg, offs)
		if err != nil {
			return sched.JobResult{}, err
		}
		res := sched.JobResult{Batch: results, Epochs: 0}
		if len(results) > 0 {
			res.Host = results[0]
		}
		return res, nil
	}
	return sched.JobResult{}, fmt.Errorf("unhandled mode %q", req.Mode)
}

// inputMatrix parses the request's MatrixMarket upload, or generates its
// dataset entry at the job scale.
func inputMatrix(req sched.JobRequest, sc experiments.Scale) (*matrix.COO, error) {
	if req.MatrixMarket != "" {
		am, err := matrix.ParseMatrixMarket(req.MatrixMarket)
		if err != nil {
			return nil, fmt.Errorf("parsing matrix_market: %w", err)
		}
		return am, nil
	}
	entry, err := matrix.Entry(req.Matrix)
	if err != nil {
		return nil, err
	}
	return entry.Generate(sc.Matrix, sc.Seed), nil
}

func configFor(name string) (config.Config, error) {
	switch name {
	case "baseline":
		return config.Baseline, nil
	case "best-avg":
		return config.BestAvgCache, nil
	case "max":
		return config.MaxCfg, nil
	}
	return config.Config{}, fmt.Errorf("unknown config %q", name)
}

// epochRecords converts a device-side run log to the trace-record form the
// SSE stream carries, reproducing the observer's mapping (static runs
// bypass the controller, so no observer saw them).
func epochRecords(run core.RunResult, counters bool) []obs.EpochRecord {
	recs := make([]obs.EpochRecord, 0, len(run.Epochs))
	t := 0.0
	for i, ep := range run.Epochs {
		rec := obs.EpochRecord{
			Epoch: i, Phase: ep.Phase, StartSec: t,
			DurSec: ep.Metrics.TimeSec, EnergyJ: ep.Metrics.EnergyJ, FPOps: ep.Metrics.FPOps,
			Config: ep.Config.String(), Reconfigured: ep.Reconfigured,
		}
		if counters {
			rec.Counters = ep.Counters.FeatureMap()
		}
		t += ep.Metrics.TimeSec
		recs = append(recs, rec)
	}
	return recs
}
