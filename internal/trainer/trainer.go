// Package trainer implements the offline training pipeline of Sections 4.1,
// 4.2 and 5.1: it sweeps workload parameters (Table 3), searches for the
// "best" configuration of each program phase with the three-step
// random-sample → neighbour → dimension-sweep procedure, constructs the
// training dataset whose inputs include the current configuration (the
// paper's key departure from ProfileAdapt), and trains the per-parameter
// decision-tree ensemble.
package trainer

import (
	"context"
	"fmt"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Eval is the outcome of executing one program phase under one
// configuration: the objective metrics and the telemetry observed.
type Eval struct {
	Config   config.Config
	Metrics  power.Metrics
	Counters sim.Counters
	// Window holds the per-epoch telemetry of the measured window in
	// execution order, used by the history-based extension.
	Window []sim.Counters
}

// Evaluator runs a workload's phases under arbitrary configurations. Each
// evaluation uses a fresh (cold) machine, runs Warmup epochs to stabilize
// behaviour — the paper runs "until the program behavior stabilizes" — and
// measures the next Measure epochs.
type Evaluator struct {
	Chip       power.Chip
	BW         float64
	EpochScale float64
	Warmup     int
	Measure    int

	// Pins, when non-empty, forces the given parameters to fixed values on
	// every configuration evaluated: the search still proposes candidates
	// over the full space, but each is projected onto the pinned axes
	// before simulation (and before caching), so e.g. a -dataflow/-format
	// sweep never leaves the requested kernel variant.
	Pins map[config.Param]int

	// Memo, when non-nil, memoizes the underlying epoch replays across
	// evaluators and callers (see sim.RunMemo). The per-instance cache
	// below already dedups identical (config, phase) queries within one
	// evaluator; the memo additionally dedups across evaluator instances —
	// e.g. the PP and EE dataset passes over one sweep point — with
	// byte-identical results.
	Memo *sim.RunMemo

	// Each configuration is measured on its own kernel variant's trace,
	// with phases mapped by epoch index on the source's epoch grid.
	src       *kernels.Source
	phases    []string
	phaseIdxs map[string][]int
	cache     map[cacheKey]Eval
}

type cacheKey struct {
	cfgIdx int
	phase  string
}

// NewSourceEvaluator prepares an evaluator over the source's action space:
// each configuration is measured on the trace of the variant it selects
// (dataflow × format × scheduling), on that variant's epoch grid
// (kernels.Source.Grid). Phases are named and ordered by the natural
// variant's grid, and a phase covers the same epoch indices — the same
// fraction of the arithmetic work — under every configuration. A
// kernels.Fixed source measures every configuration on its one trace.
func NewSourceEvaluator(chip power.Chip, bw float64, src *kernels.Source, epochScale float64, warmup, measure int) (*Evaluator, error) {
	if warmup < 0 {
		warmup = 0
	}
	if measure < 1 {
		measure = 1
	}
	_, eps, err := src.Grid(config.Baseline, epochScale)
	if err != nil {
		return nil, err
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("trainer: source %s has no epochs", src.Name())
	}
	ev := &Evaluator{
		Chip: chip, BW: bw, EpochScale: epochScale,
		Warmup: warmup, Measure: measure,
		src: src, phaseIdxs: map[string][]int{}, cache: map[cacheKey]Eval{},
	}
	for i, ep := range eps {
		if _, ok := ev.phaseIdxs[ep.Phase]; !ok {
			ev.phases = append(ev.phases, ep.Phase)
		}
		ev.phaseIdxs[ep.Phase] = append(ev.phaseIdxs[ep.Phase], i)
	}
	return ev, nil
}

// Phases returns the workload's explicit phases in execution order.
func (ev *Evaluator) Phases() []string { return ev.phases }

// Eval measures phase under cfg (cached per configuration).
func (ev *Evaluator) Eval(cfg config.Config, phase string) (Eval, error) {
	for p, v := range ev.Pins {
		cfg[p] = v
	}
	key := cacheKey{cfg.Index(), phase}
	if e, ok := ev.cache[key]; ok {
		return e, nil
	}
	idxs, ok := ev.phaseIdxs[phase]
	if !ok {
		return Eval{}, fmt.Errorf("trainer: unknown phase %q", phase)
	}
	w, grid, err := ev.src.Grid(cfg, ev.EpochScale)
	if err != nil {
		return Eval{}, err
	}
	var eps []sim.EpochRange
	for _, i := range idxs {
		if i < len(grid) {
			eps = append(eps, grid[i])
		}
	}
	if len(eps) == 0 {
		return Eval{}, fmt.Errorf("trainer: variant %s has no epochs for phase %q", w.Name, phase)
	}
	warm := ev.Warmup
	if warm >= len(eps) {
		warm = len(eps) - 1
	}
	limit := warm + ev.Measure
	if limit > len(eps) {
		limit = len(eps)
	}
	rs, err := sim.RunEpochs(context.Background(), ev.Memo, ev.Chip, ev.BW, cfg, w.Trace, eps[:limit])
	if err != nil {
		return Eval{}, err
	}
	var met power.Metrics
	cs := make([]sim.Counters, 0, limit-warm)
	for _, r := range rs[warm:] {
		met.Add(r.Metrics)
		cs = append(cs, r.Counters)
	}
	e := Eval{Config: cfg, Metrics: met, Counters: sim.AverageCounters(cs), Window: cs}
	ev.cache[key] = e
	return e, nil
}

// BestConfig performs the three-step search of Section 4.1 for the given
// phase: (1) evaluate K random configurations, (2) evaluate the best one's
// hyper-sphere neighbours, (3) sweep each runtime dimension independently
// from the neighbourhood optimum and combine the per-dimension winners
// under the conditional-independence assumption. It returns the final
// configuration and every evaluation performed along the way.
func (ev *Evaluator) BestConfig(rng *rand.Rand, k, l1Type int, phase string, mode power.Mode) (config.Config, []Eval, error) {
	score := func(e Eval) float64 { return e.Metrics.Score(mode) }
	var all []Eval

	evalOne := func(cfg config.Config) (Eval, error) {
		e, err := ev.Eval(cfg, phase)
		if err != nil {
			return Eval{}, err
		}
		all = append(all, e)
		return e, nil
	}

	// Step 1: random sampling.
	best := Eval{Metrics: power.Metrics{}}
	bestSet := false
	for _, cfg := range config.Sample(rng, k, l1Type) {
		e, err := evalOne(cfg)
		if err != nil {
			return config.Config{}, nil, err
		}
		if !bestSet || score(e) > score(best) {
			best, bestSet = e, true
		}
	}
	if !bestSet {
		return config.Config{}, nil, fmt.Errorf("trainer: empty sample")
	}

	// Step 2: neighbour evaluation.
	for _, cfg := range config.Neighbors(best.Config) {
		e, err := evalOne(cfg)
		if err != nil {
			return config.Config{}, nil, err
		}
		if score(e) > score(best) {
			best = e
		}
	}

	// Step 3: independent dimension sweeps from the neighbourhood optimum.
	final := best.Config
	for _, p := range config.RuntimeParams {
		bestV, bestS := best.Config[p], -1.0
		for _, cfg := range config.Sweep(best.Config, p) {
			e, err := evalOne(cfg)
			if err != nil {
				return config.Config{}, nil, err
			}
			if s := score(e); s > bestS {
				bestV, bestS = cfg[p], s
			}
		}
		final[p] = bestV
	}
	return final, all, nil
}
