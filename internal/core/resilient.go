package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// This file is the resilience layer around the SparseAdapt feedback loop:
// the paper asserts the controller is "no worse than the best static
// config", but the published design trusts its inputs (telemetry counters)
// and outputs (predicted config levels) blindly. ResilientController makes
// that claim hold under failure: corrupt telemetry is sanitized before
// prediction, out-of-range predictions are rejected, a watchdog compares
// per-epoch cost against a trailing baseline and falls back to a known-safe
// static configuration when the model drives the machine off a cliff, knob
// writes are verified and retried, and the whole controller state can be
// checkpointed and resumed after a crash.

// FaultInjector is the hook the fault-injection harness (internal/fault)
// implements. A nil injector means a clean run; the resilience machinery is
// active either way, since real deployments fail without being asked.
type FaultInjector interface {
	// PerturbTelemetry returns the (possibly corrupted) counter frame the
	// controller observes for the epoch, plus the fault classes that fired.
	// It is called once per epoch, in order, including during checkpoint
	// replay, so stateful faults (stuck-at) stay reproducible.
	PerturbTelemetry(epoch int, c sim.Counters) (sim.Counters, []string)
	// DropTelemetry reports whether the epoch's telemetry is lost entirely.
	DropTelemetry(epoch int) bool
	// PerturbPrediction corrupts the model's predicted configuration.
	PerturbPrediction(epoch int, pred config.Config) (config.Config, bool)
	// ReconfigFault reports, for the attempt-th try at an epoch boundary,
	// whether the knob write is silently lost, and the multiplier on its
	// transition cost when it takes (1 = clean).
	ReconfigFault(epoch, attempt int) (drop bool, penaltyMult float64)
}

// counterBounds are the physically-plausible ranges of the Table 2
// telemetry, in Features order. Layer-aggregate rates are bounded by the
// bank count (generously), ratios and utilizations by 1, capacities and
// clock by the Table 1 hardware ranges.
var counterBounds = [sim.NumFeatures][2]float64{
	{0, 64}, {0, 1}, {0, 1}, {0, 16}, {4, 64}, // L1: rate, occ, miss, pref, cap
	{0, 64}, {0, 1}, {0, 1}, {0, 16}, {4, 64}, // L2
	{0, 64}, {0, 64}, // crossbar contention ratios
	{0, 4}, {0, 4}, {0, 4}, {31.25, 1000}, // IPCs, clock
	{0, 1}, {0, 1}, // memory utilization
}

// SanitizeCounters clamps or repairs a telemetry frame before it reaches
// the model: NaNs become the lower bound, infinities and out-of-range
// values clamp into the plausible range. It returns the repaired frame and
// the number of values touched. A frame produced by the machine model is
// always returned unchanged.
func SanitizeCounters(c sim.Counters) (sim.Counters, int) {
	f := c.Features()
	repairs := 0
	for i, v := range f {
		lo, hi := counterBounds[i][0], counterBounds[i][1]
		switch {
		case math.IsNaN(v):
			f[i] = lo
			repairs++
		case v < lo:
			f[i] = lo
			repairs++
		case v > hi: // +Inf clamps here
			f[i] = hi
			repairs++
		}
	}
	if repairs == 0 {
		return c, 0
	}
	return sim.CountersFromFeatures(f), repairs
}

// ValidatePrediction reports whether a predicted configuration is safe to
// apply from cur: every runtime parameter within its cardinality and the
// compile-time L1 type untouched.
func ValidatePrediction(cur, pred config.Config) bool {
	if pred[config.L1Type] != cur[config.L1Type] {
		return false
	}
	for _, p := range config.RuntimeParams {
		if pred[p] < 0 || pred[p] >= config.Cardinality(p) {
			return false
		}
	}
	return true
}

// ResilienceReport summarizes the fault handling of one run.
type ResilienceReport struct {
	// Repairs counts telemetry values the sanitizer clamped or replaced.
	Repairs int `json:"repairs"`
	// DroppedTelemetry counts epochs whose telemetry never arrived.
	DroppedTelemetry int `json:"dropped_telemetry"`
	// RejectedPredictions counts model outputs with out-of-range levels.
	RejectedPredictions int `json:"rejected_predictions"`
	// DegradedEpochs counts epochs over the watchdog's cost threshold.
	DegradedEpochs int `json:"degraded_epochs"`
	// InterferenceEpochs counts over-threshold epochs coincident with a
	// tenant-switch boundary, classified as co-tenant interference rather
	// than degradation (multi-tenant runs only; see ResilientController).
	InterferenceEpochs int `json:"interference_epochs,omitempty"`
	// Fallbacks counts watchdog trips into the safe static configuration.
	Fallbacks int `json:"fallbacks"`
	// FallbackEpochs counts epochs executed under the fallback config.
	FallbackEpochs int `json:"fallback_epochs"`
	// PermanentFallback reports whether the trip budget was exhausted and
	// the model was retired for the rest of the run.
	PermanentFallback bool `json:"permanent_fallback"`
	// ReconfigRetries counts extra reconfiguration attempts after a knob
	// write that did not take.
	ReconfigRetries int `json:"reconfig_retries"`
	// ReconfigFailures counts boundaries where the retry budget ran out
	// with the machine still in its old configuration.
	ReconfigFailures int `json:"reconfig_failures"`
	// Checkpoints counts controller checkpoints written.
	Checkpoints int `json:"checkpoints"`
}

// String renders the report as the CLI's resilience summary block.
func (r ResilienceReport) String() string {
	s := fmt.Sprintf(
		"repairs=%d dropped=%d rejected=%d degraded=%d fallbacks=%d fallback-epochs=%d permanent=%v retries=%d reconfig-failures=%d",
		r.Repairs, r.DroppedTelemetry, r.RejectedPredictions, r.DegradedEpochs,
		r.Fallbacks, r.FallbackEpochs, r.PermanentFallback, r.ReconfigRetries, r.ReconfigFailures)
	if r.InterferenceEpochs > 0 {
		s += fmt.Sprintf(" interference=%d", r.InterferenceEpochs)
	}
	return s
}

// ResilientOptions extend the controller options with the watchdog,
// fallback, retry and checkpoint knobs.
type ResilientOptions struct {
	Options
	// Fallback is the best-known static configuration, the safe harbor the
	// watchdog retreats to. The zero value is treated as unset and replaced
	// with config.BestAvgCache.
	Fallback config.Config
	// WatchdogWindow is how many trailing healthy epoch costs form the
	// baseline (default 8).
	WatchdogWindow int
	// DegradeFactor marks an epoch degraded when its cost exceeds
	// DegradeFactor × the baseline median (default 2).
	DegradeFactor float64
	// DegradeEpochs is how many consecutive degraded epochs trip the
	// watchdog into fallback (default 3).
	DegradeEpochs int
	// CooldownEpochs is how long a trip pins the fallback configuration
	// before the model is re-armed (default 12).
	CooldownEpochs int
	// MaxTrips is the trip budget: once exhausted the fallback becomes
	// permanent for the rest of the run (default 3).
	MaxTrips int
	// ReconfigRetries bounds extra attempts for a knob write that did not
	// take (default 2).
	ReconfigRetries int
	// CheckpointPath, when set, makes the controller write its state every
	// CheckpointEvery epochs (default 16) so a crashed run can Resume.
	CheckpointPath  string
	CheckpointEvery int
	// StopAfter halts the run after that many epochs (0 = run to
	// completion). It exists to exercise the crash/resume path
	// deterministically in tests and drills.
	StopAfter int
}

// DefaultResilientOptions returns production-shaped defaults around the
// paper's controller defaults.
func DefaultResilientOptions() ResilientOptions {
	return ResilientOptions{
		Options:         DefaultOptions(),
		Fallback:        config.BestAvgCache,
		WatchdogWindow:  8,
		DegradeFactor:   2,
		DegradeEpochs:   3,
		CooldownEpochs:  12,
		MaxTrips:        3,
		ReconfigRetries: 2,
		CheckpointEvery: 16,
	}
}

// normalize fills unset option fields with defaults.
func (o ResilientOptions) normalize() ResilientOptions {
	d := DefaultResilientOptions()
	if o.EpochScale <= 0 {
		o.EpochScale = 1
	}
	if (o.Fallback == config.Config{}) || !o.Fallback.Valid() {
		o.Fallback = d.Fallback
	}
	if o.WatchdogWindow < 1 {
		o.WatchdogWindow = d.WatchdogWindow
	}
	if o.DegradeFactor <= 1 {
		o.DegradeFactor = d.DegradeFactor
	}
	if o.DegradeEpochs < 1 {
		o.DegradeEpochs = d.DegradeEpochs
	}
	if o.CooldownEpochs < 1 {
		o.CooldownEpochs = d.CooldownEpochs
	}
	if o.MaxTrips < 1 {
		o.MaxTrips = d.MaxTrips
	}
	if o.ReconfigRetries < 0 {
		o.ReconfigRetries = d.ReconfigRetries
	}
	if o.CheckpointEvery < 1 {
		o.CheckpointEvery = d.CheckpointEvery
	}
	return o
}

// watchdogState is the degradation tracker: a trailing window of healthy
// epoch costs, the current degraded streak, and the fallback bookkeeping.
// Exported fields only — it is serialized inside checkpoints.
type watchdogState struct {
	Window    []float64 `json:"window"` // trailing healthy epoch costs
	Streak    int       `json:"streak"`
	Cooldown  int       `json:"cooldown"`
	Trips     int       `json:"trips"`
	Permanent bool      `json:"permanent"`
}

// baseline returns the median of the trailing healthy costs, or 0 when too
// few epochs have been observed to judge.
func (w *watchdogState) baseline() float64 {
	if len(w.Window) < 2 {
		return 0
	}
	s := append([]float64(nil), w.Window...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// observe classifies one epoch cost and updates the streak/window.
func (w *watchdogState) observe(cost float64, factor float64, window int) (degraded bool) {
	if cost <= 0 {
		return false
	}
	if b := w.baseline(); b > 0 && cost > factor*b {
		w.Streak++
		return true
	}
	w.Streak = 0
	w.Window = append(w.Window, cost)
	if len(w.Window) > window {
		w.Window = w.Window[len(w.Window)-window:]
	}
	return false
}

// epochCost is the watchdog's scalar: energy-delay product normalized by
// work squared, so epochs of different FP-op counts compare fairly and
// "degraded" means degraded EDP, the quantity the paper's fallback claim is
// stated in.
func epochCost(m power.Metrics) float64 {
	if m.FPOps <= 0 {
		return 0
	}
	return m.TimeSec * m.EnergyJ / (m.FPOps * m.FPOps)
}

// ResilientController drives the SparseAdapt feedback loop with the full
// resilience layer active. Inject is optional fault injection for drills
// and tests.
//
// Run and Resume drive a whole workload through Drive. Step serves
// schedulers that own the epoch loop themselves: the multi-tenant fabric
// multiplexer (internal/tenant) interleaves many jobs' epochs on one
// machine, so each tenant carries its own controller, the multiplexer
// reports tenant-switch boundaries via NoteSwitch, and feeds every
// completed epoch to Step.
//
// The watchdog is interference-aware: an over-threshold epoch that
// coincides with a tenant-switch boundary is classified as co-tenant
// interference — the cold-cache spike the switch itself caused — rather
// than degradation. An interference epoch does not advance the degraded
// streak, does not enter the healthy baseline window, and does not trip
// the fallback; the model still re-predicts from the epoch's (sanitized)
// telemetry, so control adapts to the post-switch state instead of
// retreating from it. Re-predict, don't fall back.
//
// Under Step, Model may be nil: the controller then holds the current
// configuration and runs watchdog classification only, which is how
// tenants without a trained model (or tests that must not pay for
// training) use it.
type ResilientController struct {
	Model  *Ensemble
	Opts   ResilientOptions
	Inject FaultInjector
	// Obs is the optional run observer (nil = observability off). Beyond
	// the plain controller's records it captures sanitizer repairs,
	// watchdog trips, fallback transitions and reconfig failures; under
	// Step, records carry the interference classification and the
	// observer's Tenant stamp.
	Obs *Observer

	loopState
}

// loopState is the live control state carried from boundary to boundary
// and captured by checkpoints.
type loopState struct {
	wd            watchdogState
	inFallback    bool
	reconfigured  bool // the last boundary reconfigured the machine
	switchPending bool
	epochs        int // epochs observed through Step
	report        ResilienceReport
	// resume is the checkpoint whose prefix a resumed run replays.
	resume *Checkpoint
}

// NewResilientController builds the controller, normalizing options.
func NewResilientController(model *Ensemble, opts ResilientOptions) *ResilientController {
	return &ResilientController{Model: model, Opts: opts.normalize()}
}

// Observe attaches an observer to the controller and returns it, for
// chaining at construction.
func (c *ResilientController) Observe(o *Observer) *ResilientController {
	c.Obs = o
	return c
}

// NoteSwitch tells the controller the next epoch it observes is the first
// one after a tenant switch, so an over-threshold cost there is classified
// as interference instead of degradation.
func (c *ResilientController) NoteSwitch() {
	c.switchPending = true
}

// Report returns the resilience summary accumulated so far.
func (c *ResilientController) Report() ResilienceReport { return c.report }

// Flush closes the observer's pending epoch record; the multiplexer calls it
// when the tenant's job completes.
func (c *ResilientController) Flush() { c.Obs.flush() }

// attemptReconfig drives one epoch-boundary reconfiguration with fault
// injection, verification and bounded retry. epoch is the epoch just
// completed (the hash key for injected faults). It returns whether the
// machine ended at target, how many extra attempts were spent, and the
// cost of the reconfiguration that took (zero when none did).
func (c *ResilientController) attemptReconfig(m *sim.Machine, epoch int, target config.Config) (ok bool, retries int, cost sim.ReconfigCost) {
	for attempt := 0; attempt <= c.Opts.ReconfigRetries; attempt++ {
		drop, mult := false, 1.0
		if c.Inject != nil {
			drop, mult = c.Inject.ReconfigFault(epoch, attempt)
		}
		if !drop {
			rc, err := m.Reconfigure(target)
			if err != nil {
				// Unreachable through the policy filter (coarse changes are
				// never predicted), but a corrupt target must not wedge us.
				return false, attempt, cost
			}
			cost = rc
			if mult > 1 {
				m.InjectPenalty(rc.Cycles * (mult - 1))
			}
		}
		// Verify the knobs actually took: a dropped write leaves the old
		// configuration in place and earns another attempt.
		if m.Config() == target {
			return true, attempt, cost
		}
	}
	return m.Config() == target, c.Opts.ReconfigRetries, cost
}

// Run executes the workload under resilient SparseAdapt control. A
// cancelled context stops the run at the next epoch boundary and returns
// the partial result with the context's error; the last checkpoint on
// disk still resumes to the uninterrupted result.
func (c *ResilientController) Run(ctx context.Context, m *sim.Machine, w kernels.Workload) (RunResult, error) {
	return c.drive(ctx, m, w, nil)
}

// Resume continues a run from a checkpoint written by a previous Run: the
// machine (freshly constructed at the same start configuration) is
// fast-forwarded by replaying the recorded configuration schedule — no
// model inference — and the control loop continues from the checkpointed
// epoch with identical state, so the epoch log tail matches the
// uninterrupted run exactly.
func (c *ResilientController) Resume(ctx context.Context, m *sim.Machine, w kernels.Workload, ck *Checkpoint) (RunResult, error) {
	if ck == nil {
		return RunResult{}, fmt.Errorf("core: nil checkpoint")
	}
	return c.drive(ctx, m, w, ck)
}

func (c *ResilientController) drive(ctx context.Context, m *sim.Machine, w kernels.Workload, ck *Checkpoint) (RunResult, error) {
	if c.Model == nil {
		return RunResult{}, fmt.Errorf("core: resilient controller has no model")
	}
	c.Opts = c.Opts.normalize()
	c.loopState = loopState{}
	if ck != nil {
		if m.Config() != ck.Start {
			return RunResult{}, fmt.Errorf("core: machine starts at %v, checkpoint recorded %v", m.Config(), ck.Start)
		}
		c.loopState = loopState{
			wd: ck.Watchdog, inFallback: ck.InFallback, reconfigured: ck.Reconfigured,
			report: ck.Report, resume: ck,
		}
	}
	res, err := Drive(ctx, m, kernels.Fixed(w), c.Opts.EpochScale, resilientRun{c})
	res.Resilience = c.report
	return res, err
}

// resilientRun is a ResilientController driving a whole run: it skips the
// decision after the final epoch, writes checkpoints and honors StopAfter.
type resilientRun struct{ *ResilientController }

func (c resilientRun) Step(m *sim.Machine, b Boundary) (bool, bool, error) {
	if c.resume != nil && b.Epoch < c.resume.Epoch {
		return c.replay(m, b)
	}
	clean, dropped := c.observe(b, b.Log())
	if !b.Last {
		c.decide(m, b, clean, dropped)
	}
	done := b.Epoch + 1
	if c.Opts.CheckpointPath != "" && (done%c.Opts.CheckpointEvery == 0 || b.Last) {
		if err := c.writeCheckpoint(m, b.Run, done); err != nil {
			return c.reconfigured, false, fmt.Errorf("core: checkpoint at epoch %d: %w", done, err)
		}
		c.report.Checkpoints++
		c.Obs.event("checkpoint", map[string]string{"epoch": fmt.Sprintf("%d", done)})
	}
	return c.reconfigured, c.Opts.StopAfter > 0 && done >= c.Opts.StopAfter, nil
}

func (c resilientRun) flush() { c.Obs.flush() }

// Step observes one epoch that a scheduler owning the epoch loop ran on m
// for this controller's job, and performs the boundary decision for the
// next: watchdog classification (degraded vs interference), fallback
// bookkeeping, and — model permitting — a validated, policy-filtered
// prediction applied to the machine. The job runs on a single trace, so
// the algorithm axes are held. It returns the annotated epoch log; after
// Step returns, m.Config() is the configuration the job's next epoch
// should run under.
func (c *ResilientController) Step(m *sim.Machine, r sim.EpochResult) EpochLog {
	log := EpochLog{
		Config: m.Config(), Metrics: r.Metrics, Counters: r.Counters,
		Phase: r.Phase, Reconfigured: c.reconfigured,
	}
	b := Boundary{Epoch: c.epochs, Result: r, Pinned: true}
	clean, dropped := c.observe(b, &log)
	c.epochs++
	c.decide(m, b, clean, dropped)
	return log
}

// observe classifies the epoch into its log and the report — injected
// faults, sanitizer repairs, lost telemetry, and degradation or co-tenant
// interference — then records the epoch with the observer. It returns the
// sanitized telemetry and whether it was lost.
func (c *ResilientController) observe(b Boundary, log *EpochLog) (sim.Counters, bool) {
	i, r := b.Epoch, b.Result
	log.Fallback = c.inFallback
	c.reconfigured = false

	// Telemetry path: inject, maybe drop, sanitize.
	telemetry, dropped := r.Counters, false
	if c.Inject != nil {
		// PerturbTelemetry always runs so stateful faults stay in step.
		telemetry, _ = c.Inject.PerturbTelemetry(i, r.Counters)
		dropped = c.Inject.DropTelemetry(i)
	}
	clean, repairs := SanitizeCounters(telemetry)
	log.Repairs = repairs
	log.TelemetryDropped = dropped
	c.report.Repairs += repairs
	if dropped {
		c.report.DroppedTelemetry++
	}

	// Watchdog: an over-threshold epoch right after a tenant switch is the
	// co-tenant's cold-cache bill, not a fault — classify it, keep the
	// streak and baseline untouched, and let the model re-predict.
	// Otherwise classify the cost against the trailing baseline. Fallback
	// epochs feed the baseline too — they run the safe config, which is
	// exactly what "healthy" means here.
	cost := epochCost(r.Metrics)
	if base := c.wd.baseline(); c.switchPending && base > 0 && cost > c.Opts.DegradeFactor*base {
		log.Interference = true
		c.report.InterferenceEpochs++
		c.Obs.event("interference", map[string]string{"epoch": fmt.Sprintf("%d", i)})
	} else if log.Degraded = c.wd.observe(cost, c.Opts.DegradeFactor, c.Opts.WatchdogWindow); log.Degraded {
		c.report.DegradedEpochs++
	}
	c.switchPending = false
	if c.inFallback {
		c.report.FallbackEpochs++
	}
	c.Obs.epoch(i, *log)
	return clean, dropped
}

// decide performs the boundary decision after the epoch: watchdog trips
// and cooldown bookkeeping, or a validated model prediction filtered
// through the reconfiguration-cost policy, then a verified (and retried)
// reconfiguration.
func (c *ResilientController) decide(m *sim.Machine, b Boundary, clean sim.Counters, dropped bool) {
	// Fallback regime: hold the safe config through the cooldown, then
	// re-arm the model.
	if c.inFallback {
		if !c.wd.Permanent {
			c.wd.Cooldown--
			if c.wd.Cooldown <= 0 {
				c.inFallback = false
				c.wd.Streak = 0
				c.Obs.event("fallback-exit", nil)
				return // re-armed; model resumes next boundary
			}
		}
		if m.Config() != c.Opts.Fallback {
			c.applyTarget(m, b.Epoch, c.Opts.Fallback)
		}
		return
	}

	// Watchdog trip: K consecutive degraded epochs retire the model to the
	// fallback config, permanently once the trip budget is spent.
	if c.wd.Streak >= c.Opts.DegradeEpochs {
		c.wd.Trips++
		c.report.Fallbacks++
		c.wd.Streak = 0
		c.wd.Cooldown = c.Opts.CooldownEpochs
		if c.wd.Trips >= c.Opts.MaxTrips {
			c.wd.Permanent = true
			c.report.PermanentFallback = true
		}
		c.inFallback = true
		c.Obs.event("watchdog-trip", map[string]string{
			"trips":     fmt.Sprintf("%d", c.wd.Trips),
			"permanent": fmt.Sprintf("%v", c.wd.Permanent),
		})
		c.applyTarget(m, b.Epoch, c.Opts.Fallback)
		return
	}

	// Normal model-driven path. Lost telemetry, or no model (watchdog-only
	// control): no decision, hold the configuration.
	if dropped || c.Model == nil {
		return
	}
	pred := c.Model.Predict(m.Config(), clean)
	if c.Inject != nil {
		pred, _ = c.Inject.PerturbPrediction(b.Epoch, pred)
	}
	if !ValidatePrediction(m.Config(), pred) {
		c.report.RejectedPredictions++
		// Raw level indices, not pred.String(): the rejection means the
		// levels are out of range, which String would panic on.
		c.Obs.event("rejected-prediction", map[string]string{"pred": fmt.Sprintf("%v", [config.NumParams]int(pred))})
		return
	}
	inner := Controller{Model: c.Model, Opts: c.Opts.Options}
	pred, next := inner.choose(m, pred, b)
	c.Obs.decision(pred, next)
	if next != m.Config() {
		c.applyTarget(m, b.Epoch, next)
	}
}

// applyTarget reconfigures toward target with verification and retry,
// updating the control state and report.
func (c *ResilientController) applyTarget(m *sim.Machine, epoch int, target config.Config) {
	from := m.Config()
	ok, retries, cost := c.attemptReconfig(m, epoch, target)
	c.report.ReconfigRetries += retries
	if ok {
		c.reconfigured = true
		c.Obs.reconfig(from, target, cost)
	} else {
		c.report.ReconfigFailures++
		c.Obs.event("reconfig-failure", map[string]string{"target": target.String()})
	}
}
