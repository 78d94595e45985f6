package core

import (
	"context"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/sim"
)

// The history-based extension sketched in the paper's Discussion (Section
// 7, "Bridging the Gap with Oracle"): instead of the current epoch's
// telemetry only, the model sees a window of the last H epochs, borrowing
// from branch prediction and prefetching. H = 1 reduces exactly to the
// published SparseAdapt.

// HistoryFeatureCount returns the model input width for a window of h
// epochs: the configuration feedback plus h telemetry frames.
func HistoryFeatureCount(h int) int {
	if h < 1 {
		h = 1
	}
	return ConfigFeatureCount + h*sim.NumFeatures
}

// BuildHistoryFeatures assembles the input vector from the current
// configuration and the last h telemetry frames, oldest first. Shorter
// windows (program start) are padded by repeating the oldest real frame, so
// the vector width is constant. An empty window — no telemetry observed yet
// — is padded with a sanitized neutral frame (every counter clamped into
// its physical range), never a raw zero frame: a machine reporting zero
// cache capacity and a zero clock is impossible telemetry, and a model
// trained on real frames must not be fed one as if it were observed.
func BuildHistoryFeatures(cfg config.Config, window []sim.Counters, h int) []float64 {
	if h < 1 {
		h = 1
	}
	out := make([]float64, 0, HistoryFeatureCount(h))
	for _, p := range config.RuntimeParams {
		out = append(out, float64(cfg[p]))
	}
	if len(window) == 0 {
		neutral, _ := SanitizeCounters(sim.Counters{})
		window = []sim.Counters{neutral}
	}
	if len(window) > h {
		window = window[len(window)-h:]
	}
	for i := 0; i < h-len(window); i++ {
		out = append(out, window[0].Features()...)
	}
	for _, c := range window {
		out = append(out, c.Features()...)
	}
	return out
}

// PredictX predicts from a pre-built feature vector (used by the
// history-based controller whose vectors are wider than BuildFeatures').
func (e *Ensemble) PredictX(cur config.Config, x []float64) config.Config {
	out := cur
	for _, p := range config.RuntimeParams {
		t, ok := e.Trees[p]
		if !ok {
			continue
		}
		v := t.Predict(x)
		if v >= 0 && v < config.Cardinality(p) {
			out[p] = v
		}
	}
	return out
}

// HistoryController drives the feedback loop with an H-epoch telemetry
// window. Its model must have been trained on history-augmented features
// of the same window length.
type HistoryController struct {
	Model *Ensemble
	Opts  Options
	H     int
}

// NewHistoryController builds the extended controller. h < 1 behaves like
// the published single-epoch SparseAdapt.
func NewHistoryController(model *Ensemble, opts Options, h int) *HistoryController {
	if opts.EpochScale <= 0 {
		opts.EpochScale = 1
	}
	if h < 1 {
		h = 1
	}
	return &HistoryController{Model: model, Opts: opts, H: h}
}

// Run executes the workload under history-based control on its one trace.
func (c *HistoryController) Run(m *sim.Machine, w kernels.Workload) RunResult {
	res, _ := Drive(context.Background(), m, kernels.Fixed(w), c.Opts.EpochScale, c)
	return res
}

// Step predicts from the last H epochs' telemetry, which the run result
// already holds, and applies the policy-filtered prediction.
func (c *HistoryController) Step(m *sim.Machine, b Boundary) (bool, bool, error) {
	window := make([]sim.Counters, 0, c.H)
	for _, e := range b.Run.Epochs[max(0, b.Epoch+1-c.H) : b.Epoch+1] {
		window = append(window, e.Counters)
	}
	inner := Controller{Model: c.Model, Opts: c.Opts}
	_, next := inner.choose(m, c.Model.PredictX(m.Config(), BuildHistoryFeatures(m.Config(), window, c.H)), b)
	return inner.apply(m, next), false, nil
}
