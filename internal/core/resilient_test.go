package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// bigWorkload builds an SpMSpV workload long enough (≈75 epochs at scale
// 0.1) for the watchdog and checkpoint machinery to play out.
func bigWorkload(t *testing.T) kernels.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	am := matrix.Uniform(rng, 512, 512, 26000)
	x := matrix.RandomVec(rng, 512, 0.5)
	_, w, err := kernels.SpMSpV(am.ToCSC(), x, chip.NGPE(), chip.Tiles)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func edp(m power.Metrics) float64 { return m.TimeSec * m.EnergyJ }

// midCounters returns a frame with every feature at the midpoint of its
// plausible range — guaranteed clean.
func midCounters() sim.Counters {
	f := make([]float64, sim.NumFeatures)
	for i := range f {
		f[i] = (counterBounds[i][0] + counterBounds[i][1]) / 2
	}
	return sim.CountersFromFeatures(f)
}

func TestSanitizeCounters(t *testing.T) {
	clean := midCounters()
	got, repairs := SanitizeCounters(clean)
	if repairs != 0 || got != clean {
		t.Fatalf("clean frame repaired %d times", repairs)
	}
	// Machine-produced telemetry must always pass untouched.
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	w := testWorkload(t, 1)
	m.BindTrace(w.Trace)
	r := m.RunEpoch(w.Epochs(1)[0])
	if _, n := SanitizeCounters(r.Counters); n != 0 {
		t.Fatalf("simulator frame needed %d repairs: %+v", n, r.Counters)
	}

	// An all-NaN frame: every feature repaired to its lower bound.
	nan := make([]float64, sim.NumFeatures)
	for i := range nan {
		nan[i] = math.NaN()
	}
	got, repairs = SanitizeCounters(sim.CountersFromFeatures(nan))
	if repairs != sim.NumFeatures {
		t.Fatalf("NaN frame: %d repairs, want %d", repairs, sim.NumFeatures)
	}
	for i, v := range got.Features() {
		if v != counterBounds[i][0] {
			t.Fatalf("feature %d = %v, want lower bound %v", i, v, counterBounds[i][0])
		}
	}

	// An all-Inf frame clamps to the upper bounds.
	inf := make([]float64, sim.NumFeatures)
	for i := range inf {
		inf[i] = math.Inf(1)
	}
	got, repairs = SanitizeCounters(sim.CountersFromFeatures(inf))
	if repairs != sim.NumFeatures {
		t.Fatalf("Inf frame: %d repairs", repairs)
	}
	for i, v := range got.Features() {
		if v != counterBounds[i][1] {
			t.Fatalf("feature %d = %v, want upper bound %v", i, v, counterBounds[i][1])
		}
	}

	// A single out-of-range value is the only one touched.
	f := clean.Features()
	f[0] = -17
	got, repairs = SanitizeCounters(sim.CountersFromFeatures(f))
	if repairs != 1 {
		t.Fatalf("one bad value: %d repairs", repairs)
	}
	if got.Features()[0] != counterBounds[0][0] {
		t.Fatal("bad value not clamped to its bound")
	}
}

func TestValidatePrediction(t *testing.T) {
	cur := config.BestAvgCache
	if !ValidatePrediction(cur, config.Baseline) {
		t.Fatal("a valid same-L1-type config must pass")
	}
	flip := config.Baseline
	flip[config.L1Type] = config.SPMMode
	if ValidatePrediction(cur, flip) {
		t.Fatal("changing the compile-time L1 type must be rejected")
	}
	for _, p := range config.RuntimeParams {
		over := cur
		over[p] = config.Cardinality(p)
		if ValidatePrediction(cur, over) {
			t.Fatalf("%v above cardinality must be rejected", p)
		}
		under := cur
		under[p] = -1
		if ValidatePrediction(cur, under) {
			t.Fatalf("negative %v must be rejected", p)
		}
	}
}

func TestWatchdogObserve(t *testing.T) {
	var w watchdogState
	// Costs below a baseline-forming history are healthy and feed the window.
	for i := 0; i < 8; i++ {
		if w.observe(1.0, 2, 8) {
			t.Fatalf("epoch %d: steady cost flagged degraded", i)
		}
	}
	if b := w.baseline(); b != 1.0 {
		t.Fatalf("baseline %v, want 1.0", b)
	}
	// A 5× cost is degraded and does not pollute the window.
	for i := 0; i < 3; i++ {
		if !w.observe(5.0, 2, 8) {
			t.Fatalf("degraded epoch %d not flagged", i)
		}
		if w.Streak != i+1 {
			t.Fatalf("streak %d, want %d", w.Streak, i+1)
		}
	}
	if b := w.baseline(); b != 1.0 {
		t.Fatalf("degraded epochs moved the baseline to %v", b)
	}
	// One healthy epoch resets the streak.
	if w.observe(1.1, 2, 8) {
		t.Fatal("healthy epoch flagged")
	}
	if w.Streak != 0 {
		t.Fatalf("streak %d after recovery", w.Streak)
	}
	// Zero/invalid costs are ignored entirely.
	if w.observe(0, 2, 8) || w.observe(-1, 2, 8) {
		t.Fatal("non-positive cost classified")
	}
	// The window is bounded.
	for i := 0; i < 100; i++ {
		w.observe(1.0, 2, 8)
	}
	if len(w.Window) != 8 {
		t.Fatalf("window grew to %d", len(w.Window))
	}
}

// rogueInjector models a model gone bad mid-run: from epoch From on, every
// prediction is replaced with Bad — a *valid* but terrible configuration,
// the one failure the sanitizer and validator cannot catch. Only the
// watchdog can.
type rogueInjector struct {
	From int
	Bad  config.Config
}

func (r *rogueInjector) PerturbTelemetry(epoch int, c sim.Counters) (sim.Counters, []string) {
	return c, nil
}
func (r *rogueInjector) DropTelemetry(int) bool { return false }
func (r *rogueInjector) PerturbPrediction(epoch int, pred config.Config) (config.Config, bool) {
	if epoch >= r.From {
		return r.Bad, true
	}
	return pred, false
}
func (r *rogueInjector) ReconfigFault(int, int) (bool, float64) { return false, 1 }

func TestWatchdogFallbackEndToEnd(t *testing.T) {
	w := bigWorkload(t)
	start := config.BestAvgCache
	model := constModel(t, start, power.EnergyEfficient)
	slow := start
	slow[config.Clock] = 0 // 31.25 MHz: ~3× worse EDP on this workload

	opts := DefaultResilientOptions()
	opts.EpochScale = 0.1
	opts.Fallback = start
	// A tighter watchdog than the defaults: this drill's rogue model
	// re-offends on every re-arm, so spend fewer epochs confirming it.
	opts.DegradeEpochs = 2
	opts.MaxTrips = 2
	rc := NewResilientController(model, opts)
	rc.Inject = &rogueInjector{From: 10, Bad: slow}
	m := sim.New(chip, sim.DefaultBandwidth, start)
	res, err := rc.Run(context.Background(), m, w)
	if err != nil {
		t.Fatal(err)
	}

	rep := res.Resilience
	if rep.Fallbacks == 0 {
		t.Fatalf("watchdog never tripped: %+v", rep)
	}
	if rep.DegradedEpochs == 0 || rep.FallbackEpochs == 0 {
		t.Fatalf("no degraded/fallback epochs recorded: %+v", rep)
	}
	// The rogue model re-offends after every cooldown, so the trip budget
	// runs out and the fallback becomes permanent.
	if !rep.PermanentFallback {
		t.Fatalf("trip budget not exhausted over %d epochs: %+v", len(res.Epochs), rep)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.Config != start || !last.Fallback {
		t.Fatalf("run did not end in the fallback config: %+v", last)
	}

	// Graceful degradation: despite a model actively driving the machine off
	// a cliff every chance it gets, the run's EDP stays within 2× the best
	// static config (the degraded epochs before each trip are the price).
	static := RunStatic(chip, sim.DefaultBandwidth, start, w, opts.EpochScale)
	if ratio := edp(res.Total) / edp(static.Total); ratio > 2 {
		t.Fatalf("EDP %.2fx best static, want <= 2x", ratio)
	}
}

// TestFaultSuite is the acceptance drill: under every fault class the run
// completes without panic and lands within 1.5× the best static EDP.
func TestFaultSuite(t *testing.T) {
	w := bigWorkload(t)
	scale := 0.1
	bestStatic := math.Inf(1)
	for _, cfg := range []config.Config{config.Baseline, config.BestAvgCache} {
		if e := edp(RunStatic(chip, sim.DefaultBandwidth, cfg, w, scale).Total); e < bestStatic {
			bestStatic = e
		}
	}

	specs := []string{
		"", // clean run through the same resilient path
		"nan=0.3,seed=5",
		"inf=0.3,seed=5",
		"zero=0.3,seed=5",
		"stuck=0.3,seed=5",
		"drop=0.3,seed=5",
		"noise=0.5,seed=5",
		"wild=0.5,seed=5",
		"rc-drop=0.5,seed=5",
		"rc-penalty=0.3,mult=8,seed=5",
		"nan=0.1,stuck=0.1,drop=0.1,noise=0.2,wild=0.2,rc-drop=0.2,rc-penalty=0.1,seed=5",
	}
	for _, specText := range specs {
		name := specText
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			model := constModel(t, config.BestAvgCache, power.EnergyEfficient)
			opts := DefaultResilientOptions()
			opts.EpochScale = scale
			rc := NewResilientController(model, opts)
			if specText != "" {
				spec, err := fault.ParseSpec(specText)
				if err != nil {
					t.Fatal(err)
				}
				rc.Inject = fault.New(spec)
			}
			m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
			res, err := rc.Run(context.Background(), m, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Epochs) != len(w.Epochs(scale)) {
				t.Fatalf("run stopped early: %d epochs", len(res.Epochs))
			}
			if ratio := edp(res.Total) / bestStatic; ratio > 1.5 {
				t.Fatalf("EDP %.3fx best static under %q, want <= 1.5x\nreport: %s",
					ratio, specText, res.Resilience)
			}
		})
	}
}

// TestReconfigDropAccounting: with every knob write dropped, the machine
// never leaves its start configuration and every failed boundary is counted.
func TestReconfigDropAccounting(t *testing.T) {
	w := bigWorkload(t)
	model := constModel(t, config.BestAvgCache, power.EnergyEfficient)
	opts := DefaultResilientOptions()
	opts.EpochScale = 0.1
	rc := NewResilientController(model, opts)
	rc.Inject = fault.New(fault.Spec{RcDrop: 1})
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	res, err := rc.Run(context.Background(), m, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range res.Epochs {
		if ep.Config != config.Baseline {
			t.Fatalf("epoch %d escaped the start config despite rc-drop=1", i)
		}
		if ep.Reconfigured {
			t.Fatalf("epoch %d marked reconfigured", i)
		}
	}
	rep := res.Resilience
	if rep.ReconfigFailures == 0 || rep.ReconfigRetries == 0 {
		t.Fatalf("dropped writes not accounted: %+v", rep)
	}
	// Every failure burned the full retry budget.
	if rep.ReconfigRetries != rep.ReconfigFailures*opts.ReconfigRetries {
		t.Fatalf("retries %d for %d failures (budget %d)",
			rep.ReconfigRetries, rep.ReconfigFailures, opts.ReconfigRetries)
	}
}

// TestCheckpointResume is the crash-recovery acceptance test: a run killed
// mid-workload and resumed from its checkpoint must produce exactly the
// epoch log an uninterrupted run produces — under fault injection (with
// stateful stuck-at faults) and mid-fallback alike.
func TestCheckpointResume(t *testing.T) {
	w := bigWorkload(t)
	spec, err := fault.ParseSpec("nan=0.1,stuck=0.2,drop=0.1,noise=0.2,wild=0.2,rc-drop=0.2,rc-penalty=0.1,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	slow := config.BestAvgCache
	slow[config.Clock] = 0

	cases := []struct {
		name   string
		start  config.Config
		inject func() FaultInjector
	}{
		{"injected-faults", config.Baseline, func() FaultInjector { return fault.New(spec) }},
		// StopAfter 16 lands inside the first fallback cooldown (trip ≈ epoch
		// 13), so the checkpoint carries live watchdog/fallback state.
		{"mid-fallback", config.BestAvgCache, func() FaultInjector { return &rogueInjector{From: 10, Bad: slow} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := constModel(t, config.BestAvgCache, power.EnergyEfficient)
			opts := DefaultResilientOptions()
			opts.EpochScale = 0.1
			opts.CheckpointEvery = 8

			// Reference: one uninterrupted run.
			ref := NewResilientController(model, opts)
			ref.Inject = tc.inject()
			full, err := ref.Run(context.Background(), sim.New(chip, sim.DefaultBandwidth, tc.start), w)
			if err != nil {
				t.Fatal(err)
			}

			// Crash: same run, killed after 16 epochs with a checkpoint on disk.
			ckPath := filepath.Join(t.TempDir(), "run.ck")
			copts := opts
			copts.CheckpointPath = ckPath
			copts.StopAfter = 16
			crashed := NewResilientController(model, copts)
			crashed.Inject = tc.inject()
			part, err := crashed.Run(context.Background(), sim.New(chip, sim.DefaultBandwidth, tc.start), w)
			if err != nil {
				t.Fatal(err)
			}
			if len(part.Epochs) != 16 {
				t.Fatalf("crashed run logged %d epochs, want 16", len(part.Epochs))
			}

			// Resume: fresh machine, fresh injector, state from the checkpoint.
			ck, err := LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Epoch != 16 {
				t.Fatalf("checkpoint at epoch %d, want 16", ck.Epoch)
			}
			ropts := opts
			ropts.CheckpointPath = ckPath
			resumed := NewResilientController(model, ropts)
			resumed.Inject = tc.inject()
			res, err := resumed.Resume(context.Background(), sim.New(chip, sim.DefaultBandwidth, tc.start), w, ck)
			if err != nil {
				t.Fatal(err)
			}

			if len(res.Epochs) != len(full.Epochs) {
				t.Fatalf("resumed run logged %d epochs, reference %d", len(res.Epochs), len(full.Epochs))
			}
			for i := range full.Epochs {
				if res.Epochs[i] != full.Epochs[i] {
					t.Fatalf("epoch %d diverges:\nresumed:   %+v\nreference: %+v", i, res.Epochs[i], full.Epochs[i])
				}
			}
			if res.Total != full.Total {
				t.Fatalf("totals diverge:\nresumed:   %+v\nreference: %+v", res.Total, full.Total)
			}
			if res.Reconfig != full.Reconfig {
				t.Fatalf("reconfig counts diverge: %d vs %d", res.Reconfig, full.Reconfig)
			}
		})
	}
}

// TestCancelledRunResumes: a run whose context is cancelled at epoch k
// stops there with the uninterrupted run's first k epochs, and the
// checkpoint it left on disk resumes to the uninterrupted result (see
// resumeCase.check, which FuzzResumeMatchesUninterrupted drives too).
func TestCancelledRunResumes(t *testing.T) {
	spec, err := fault.ParseSpec("nan=0.1,stuck=0.2,drop=0.1,noise=0.2,wild=0.2,rc-drop=0.2,rc-penalty=0.1,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultResilientOptions()
	opts.EpochScale = 0.1
	opts.CheckpointEvery = 8
	model, w := jumpyModel(t), bigWorkload(t)
	for _, k := range []int{8, 21} {
		resumeCase{model: model, w: w, opts: opts, spec: spec, start: config.Baseline, k: k}.check(t)
	}
}

// TestResumeRejectsBadState: Resume must refuse checkpoints that do not
// match the machine or workload instead of silently diverging.
func TestResumeRejectsBadState(t *testing.T) {
	w := bigWorkload(t)
	model := constModel(t, config.BestAvgCache, power.EnergyEfficient)
	opts := DefaultResilientOptions()
	opts.EpochScale = 0.1
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ck")
	opts.CheckpointEvery = 8
	opts.StopAfter = 8
	rc := NewResilientController(model, opts)
	if _, err := rc.Run(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.Baseline), w); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong start configuration.
	if _, err := rc.Resume(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.MaxCfg), w, ck); err == nil {
		t.Fatal("resume with a mismatched machine must fail")
	}
	// Workload shorter than the checkpointed prefix.
	short := testWorkload(t, 1)
	if _, err := rc.Resume(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.Baseline), short, ck); err == nil {
		t.Fatal("resume past the workload's end must fail")
	}
	// Nil checkpoint.
	if _, err := rc.Resume(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.Baseline), w, nil); err == nil {
		t.Fatal("nil checkpoint must fail")
	}
}
