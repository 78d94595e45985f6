package core

import (
	"context"
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Policy is the reconfiguration-cost-aware hysteresis scheme of Section
// 4.4, applied per parameter on top of the model's prediction.
type Policy int

const (
	// Conservative never reconfigures parameters whose transition exceeds
	// the fixed super-fine cost (i.e. anything requiring a flush).
	Conservative Policy = iota
	// Aggressive always follows the model's prediction regardless of cost.
	Aggressive
	// Hybrid allows a flushing change only when its estimated time cost is
	// within Tolerance × the previous epoch's elapsed time, penalizing
	// bursts of reconfiguration in short epochs while allowing occasional
	// ones (Section 4.4).
	Hybrid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Conservative:
		return "conservative"
	case Aggressive:
		return "aggressive"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configure a Controller.
type Options struct {
	Policy Policy
	// Tolerance is the hybrid policy's threshold as a fraction of the
	// previous epoch time (the paper uses 40% for SpMSpV, Section 5.4).
	Tolerance float64
	// EpochScale scales the paper's per-kernel epoch size (1 = paper's 500
	// / 5000 FP-ops per GPE); scaled-down inputs use smaller epochs.
	EpochScale float64
}

// DefaultTolerance is the hybrid policy's threshold for SpMSpV and the
// graph kernels that share its model: 40% of the previous epoch's time
// (Section 5.4).
const DefaultTolerance = 0.4

// DefaultOptions returns the paper's defaults: hybrid with 40% tolerance.
func DefaultOptions() Options {
	return Options{Policy: Hybrid, Tolerance: DefaultTolerance, EpochScale: 1}
}

// EpochLog records one epoch of a run for analysis and plotting (the
// Figure 1 timeline is built from these).
type EpochLog struct {
	Config   config.Config
	Metrics  power.Metrics
	Counters sim.Counters
	Phase    string
	// Reconfigured reports whether the controller changed configuration
	// entering this epoch.
	Reconfigured bool

	// Resilience annotations, populated by ResilientController runs (all
	// zero under the plain controller). EpochLog stays a comparable struct
	// so deterministic runs can be diffed epoch-by-epoch with ==.

	// Repairs counts telemetry values the sanitizer had to clamp or replace
	// before this epoch's counters reached the model.
	Repairs int
	// TelemetryDropped marks an epoch whose telemetry never arrived; the
	// controller held the current configuration.
	TelemetryDropped bool
	// Degraded marks an epoch whose cost exceeded the watchdog's trailing
	// baseline by more than the configured factor.
	Degraded bool
	// Interference marks an epoch whose cost shift coincided with a
	// tenant-switch boundary on a time-multiplexed fabric: the cold-cache
	// spike is attributed to the co-tenant, not a fault, so it neither
	// counts toward the degraded streak nor pollutes the baseline (see
	// ResilientController).
	Interference bool
	// Fallback marks an epoch executed under the safe static fallback
	// configuration rather than model control.
	Fallback bool
}

// RunResult aggregates a full workload execution.
type RunResult struct {
	Total    power.Metrics
	Epochs   []EpochLog
	Reconfig int // number of epochs entered with a configuration change
	// Resilience summarizes fault handling over the run (zero for plain
	// controller and static runs).
	Resilience ResilienceReport
}

// Controller is the SparseAdapt runtime: it owns the predictive model and
// drives the feedback loop against a machine.
type Controller struct {
	Model *Ensemble
	Opts  Options
	// Obs is the optional run observer (nil = observability off).
	Obs *Observer
}

// NewController builds a controller with the given trained model.
func NewController(model *Ensemble, opts Options) *Controller {
	if opts.EpochScale <= 0 {
		opts.EpochScale = 1
	}
	return &Controller{Model: model, Opts: opts}
}

// Observe attaches an observer to the controller and returns it, for
// chaining at construction.
func (c *Controller) Observe(o *Observer) *Controller {
	c.Obs = o
	return c
}

// choose applies the cost-aware policy to the model's prediction at the
// boundary. When the source replays a single trace, the prediction's
// algorithm axes are first pinned to the machine's. It returns the pinned
// prediction and the configuration actually applied. Algorithmic
// (dataflow/format) switches, whose format-conversion charge the bound
// trace's nonzero count drives, fall under the same cost-gating as
// flushing changes — conservative never takes them, aggressive always
// does, hybrid when the estimated transition time fits within the
// tolerance of the last epoch's time.
func (c *Controller) choose(m *sim.Machine, pred config.Config, b Boundary) (config.Config, config.Config) {
	cur := m.Config()
	if b.Pinned {
		for _, p := range []config.Param{config.Dataflow, config.Format, config.SchedPolicy} {
			pred[p] = cur[p]
		}
	}
	out := cur
	for _, p := range config.RuntimeParams {
		if pred[p] == cur[p] {
			continue
		}
		cls := config.TransitionClass(p, cur[p], pred[p])
		switch c.Opts.Policy {
		case Aggressive:
			out[p] = pred[p]
		case Conservative:
			if cls == config.SuperFine {
				out[p] = pred[p]
			}
		case Hybrid:
			if cls == config.SuperFine {
				out[p] = pred[p]
				continue
			}
			// Estimate the isolated cost of moving this one parameter.
			probe := cur
			probe[p] = pred[p]
			r := b.Result
			tCost, _ := sim.TransitionPenalty(m.Chip(), cur, probe, r.DirtyL1, r.DirtyL2, m.TraceNNZ(), m.Bandwidth())
			if tCost <= c.Opts.Tolerance*r.Metrics.TimeSec {
				out[p] = pred[p]
			}
		}
	}
	return pred, out
}

// apply reconfigures the machine to next when it differs from the current
// configuration, and reports whether the reconfiguration took.
func (c *Controller) apply(m *sim.Machine, next config.Config) bool {
	from := m.Config()
	if next == from {
		return false
	}
	rc, err := m.Reconfigure(next)
	if err != nil {
		return false
	}
	c.Obs.reconfig(from, next, rc)
	return true
}

// Run executes the workload under SparseAdapt control on its one trace.
func (c *Controller) Run(m *sim.Machine, w kernels.Workload) RunResult {
	res, _ := Drive(context.Background(), m, kernels.Fixed(w), c.Opts.EpochScale, c)
	return res
}

// Step is the SparseAdapt boundary decision: the epoch's telemetry feeds
// the model, and its prediction, filtered by the policy, becomes the next
// epoch's configuration. On a multi-variant source the prediction may move
// the dataflow, format and scheduling axes too, and Drive rebinds the
// machine to the matching variant.
func (c *Controller) Step(m *sim.Machine, b Boundary) (bool, bool, error) {
	c.Obs.epoch(b.Epoch, *b.Log())
	pred, next := c.choose(m, c.Model.Predict(m.Config(), b.Result.Counters), b)
	c.Obs.decision(pred, next)
	return c.apply(m, next), false, nil
}

func (c *Controller) flush() { c.Obs.flush() }
