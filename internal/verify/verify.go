// Package verify is the repository's end-to-end correctness subsystem: the
// safety net that makes cross-package behavioral regressions visible even
// when every unit test stays green. It has three pillars:
//
//   - A golden-trace regression harness: a canonical corpus of small
//     scenarios (kernel × matrix structure × configuration schedule) whose
//     per-epoch counter digests, energy totals and controller decision
//     sequences are committed as golden JSON files. Any change to the
//     simulator, power model, kernels, controller or trainer that shifts
//     observable behavior fails the comparison with a readable diff naming
//     the scenario, epoch and field; intentional changes re-bless the
//     corpus with `go test ./internal/verify -run TestGolden -update`.
//
//   - Differential checking: naive dense reference implementations of each
//     sparse kernel validated against the traced kernels, and a cross-check
//     that the learned controller's energy-delay product stays within a
//     configured ratio of the brute-force oracle's Ideal Static bound on
//     the corpus.
//
//   - A property-based/metamorphic framework (prop.go, invariants.go) with
//     seeded generators asserting physical invariants of the model — cache
//     misses monotone in capacity, power monotone in frequency, FLOPs
//     invariant under row permutation, reconfiguration penalties exactly
//     conserved — where every failure reports the seed that replays it.
//
// The `sparseadapt verify` subcommand runs all three pillars; CI runs them
// on every push at two worker counts to pin down scheduling determinism.
package verify

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

// corpusChip is the machine topology every corpus scenario runs on: half
// the paper's 2×8 system, big enough to exercise sharing/contention and
// small enough that the whole corpus replays in a couple of seconds.
var corpusChip = power.Chip{Tiles: 2, GPEsPerTile: 4}

// corpusBW is the corpus off-chip bandwidth (the paper's deployment point).
const corpusBW = 1e9

// Schedule decides the configuration for the next epoch of a scenario run.
type Schedule interface {
	// Name identifies the schedule in golden files and reports.
	Name() string
	// Start returns the initial configuration.
	Start() config.Config
	// Next returns the configuration to enter epoch i+1 with, given the
	// epoch-i result (the machine currently holds cur). Static schedules
	// return cur unchanged.
	Next(i int, cur config.Config, r sim.EpochResult) config.Config
}

// staticSchedule holds one configuration for the whole run.
type staticSchedule struct {
	name string
	cfg  config.Config
}

func (s staticSchedule) Name() string         { return s.name }
func (s staticSchedule) Start() config.Config { return s.cfg }
func (s staticSchedule) Next(int, config.Config, sim.EpochResult) config.Config {
	return s.cfg
}

// alternateSchedule flips between two configurations every `period` epochs,
// exercising Reconfigure (flushes, resizes, prefetcher resets) on a fixed,
// model-free cadence.
type alternateSchedule struct {
	a, b   config.Config
	period int
}

func (s alternateSchedule) Name() string         { return "alternate" }
func (s alternateSchedule) Start() config.Config { return s.a }
func (s alternateSchedule) Next(i int, _ config.Config, _ sim.EpochResult) config.Config {
	if ((i+1)/s.period)%2 == 1 {
		return s.b
	}
	return s.a
}

// controllerSchedule drives the run through the real core.Controller with a
// deterministic corpus-trained model, so golden decision sequences cover
// the model/controller layers too.
type controllerSchedule struct {
	mode power.Mode
}

func (s controllerSchedule) Name() string {
	return "controller-" + s.mode.String()
}
func (s controllerSchedule) Start() config.Config { return config.Baseline }
func (s controllerSchedule) Next(int, config.Config, sim.EpochResult) config.Config {
	panic("verify: controller schedule is driven by core.Controller, not Next")
}

// driven is embedded by the schedules a core controller decides on the
// scenario's natural trace alone (the algorithm axes stay pinned): they
// start at Baseline and have no Next of their own.
type driven struct{}

func (driven) Start() config.Config { return config.Baseline }
func (driven) Next(int, config.Config, sim.EpochResult) config.Config {
	panic("verify: driven schedules are decided by a core controller, not Next")
}

// adaptiveSchedule runs core.Controller under policy with the corpus model
// trained for mode.
type adaptiveSchedule struct {
	driven
	policy core.Policy
	mode   power.Mode
}

func (s adaptiveSchedule) Name() string {
	return "adaptive-" + s.policy.String() + "-" + s.mode.String()
}

// historySchedule runs core.HistoryController with an h-epoch telemetry
// window and the corpus model trained for mode on windows of that length.
type historySchedule struct {
	driven
	h    int
	mode power.Mode
}

func (s historySchedule) Name() string { return fmt.Sprintf("history-h%d-%s", s.h, s.mode) }

// resilientSchedule runs the resilient controller under the fault spec
// with a hair-trigger watchdog (one epoch over 1.5× the baseline trips
// it). resumeAt > 0 stops the run after that many epochs with a
// checkpoint on disk and resumes it on a fresh machine and injector.
type resilientSchedule struct {
	driven
	faults   string
	resumeAt int
}

func (s resilientSchedule) Name() string {
	if s.resumeAt > 0 {
		return fmt.Sprintf("resilient-resumed-at-%d", s.resumeAt)
	}
	return "resilient"
}

// Scenario is one corpus entry: a workload recipe plus a config schedule.
type Scenario struct {
	Name       string
	Kernel     string // "spmspm" or "spmspv"
	Gen        string // matrix generator: uniform|banded|rmat|strips
	Dim        int
	NNZ        int
	Seed       int64
	Schedule   Schedule
	EpochScale float64
}

// Corpus returns the canonical scenario set. Names are stable identifiers:
// golden files are keyed by them, and `sparseadapt verify -scenario` selects
// by them. Keep additions append-only; renaming a scenario orphans its
// golden file.
func Corpus() []Scenario {
	return []Scenario{
		{
			Name: "spmspv-uniform-baseline", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   staticSchedule{"static-baseline", config.Baseline},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-rmat-maxcfg", Kernel: "spmspv", Gen: "rmat",
			Dim: 64, NNZ: 500, Seed: 2,
			Schedule:   staticSchedule{"static-maxcfg", config.MaxCfg},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-banded-alternate", Kernel: "spmspv", Gen: "banded",
			Dim: 96, NNZ: 600, Seed: 3,
			Schedule:   alternateSchedule{a: config.BestAvgCache, b: config.MaxCfg, period: 2},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-uniform-spm", Kernel: "spmspv", Gen: "uniform",
			Dim: 80, NNZ: 500, Seed: 4,
			Schedule:   staticSchedule{"static-bestavg-spm", config.BestAvgSPM},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-uniform-controller-ee", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   controllerSchedule{mode: power.EnergyEfficient},
			EpochScale: 0.05,
		},
		{
			Name: "spmspm-uniform-baseline", Kernel: "spmspm", Gen: "uniform",
			Dim: 48, NNZ: 350, Seed: 5,
			Schedule:   staticSchedule{"static-baseline", config.Baseline},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-strips-bestavg", Kernel: "spmspm", Gen: "strips",
			Dim: 48, NNZ: 0, Seed: 6, // strips sizes by density, not NNZ
			Schedule:   staticSchedule{"static-bestavg", config.BestAvgCache},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-banded-alternate", Kernel: "spmspm", Gen: "banded",
			Dim: 48, NNZ: 400, Seed: 7,
			Schedule:   alternateSchedule{a: config.Baseline, b: config.BestAvgCache, period: 3},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-uniform-inner", Kernel: "spmspm", Gen: "uniform",
			Dim: 48, NNZ: 350, Seed: 8,
			Schedule:   staticSchedule{"static-inner-csr", withAlgo(config.Baseline, config.DFInner, config.FmtCSR, config.SchedRR)},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-banded-row", Kernel: "spmspm", Gen: "banded",
			Dim: 48, NNZ: 400, Seed: 9,
			Schedule:   staticSchedule{"static-row-csr", withAlgo(config.Baseline, config.DFRow, config.FmtCSR, config.SchedRR)},
			EpochScale: 0.02,
		},
		{
			// Mid-run CSR→CSC format switches on the outer dataflow: the
			// alternate schedule crosses the Format axis, exercising the
			// algorithmic reconfiguration path (conversion charge, full
			// flush, trace rebind onto the aligned epoch grid).
			Name: "spmspm-uniform-format-switch", Kernel: "spmspm", Gen: "uniform",
			Dim: 48, NNZ: 350, Seed: 10,
			Schedule: alternateSchedule{
				a:      withAlgo(config.Baseline, config.DFOuter, config.FmtCSR, config.SchedRR),
				b:      config.Baseline, // natural point: outer/csc/rr
				period: 3,
			},
			EpochScale: 0.02,
		},
		{
			Name: "spmspv-uniform-coo-ll", Kernel: "spmspv", Gen: "uniform",
			Dim: 80, NNZ: 500, Seed: 11,
			Schedule:   staticSchedule{"static-coo-ll", withAlgo(config.Baseline, config.DFOuter, config.FmtCOO, config.SchedLL)},
			EpochScale: 0.05,
		},
		// The controller scenarios below run on the natural trace alone, so
		// the controller holds the algorithm axes. Each of the adaptive and
		// history runs reconfigures at its last boundary, after the final
		// epoch; the resilient run trips its watchdog while already in the
		// fallback configuration.
		{
			Name: "spmspv-uniform-adaptive-hybrid", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 768, Seed: 2,
			Schedule:   adaptiveSchedule{policy: core.Hybrid, mode: power.PowerPerformance},
			EpochScale: 0.05,
		},
		{
			Name: "spmspm-banded-adaptive-conservative", Kernel: "spmspm", Gen: "banded",
			Dim: 48, NNZ: 230, Seed: 4,
			Schedule:   adaptiveSchedule{policy: core.Conservative, mode: power.PowerPerformance},
			EpochScale: 0.005,
		},
		{
			Name: "spmspv-banded-history-h2", Kernel: "spmspv", Gen: "banded",
			Dim: 128, NNZ: 1365, Seed: 3,
			Schedule:   historySchedule{h: 2, mode: power.PowerPerformance},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-banded-history-h4", Kernel: "spmspv", Gen: "banded",
			Dim: 128, NNZ: 1365, Seed: 3,
			Schedule:   historySchedule{h: 4, mode: power.PowerPerformance},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-banded-resilient", Kernel: "spmspv", Gen: "banded",
			Dim: 160, NNZ: 2133, Seed: 2,
			Schedule:   resilientSchedule{faults: corpusFaults},
			EpochScale: 0.03,
		},
		{
			Name: "spmspv-banded-resilient-resumed", Kernel: "spmspv", Gen: "banded",
			Dim: 160, NNZ: 2133, Seed: 2,
			Schedule:   resilientSchedule{faults: corpusFaults, resumeAt: 12},
			EpochScale: 0.03,
		},
	}
}

// corpusFaults is the resilient scenarios' fault spec: every telemetry and
// reconfiguration fault class, stateful stuck-at faults included.
const corpusFaults = "nan=0.1,stuck=0.2,drop=0.1,noise=0.2,wild=0.2,rc-drop=0.2,rc-penalty=0.1,seed=9"

// withAlgo returns c with its algorithm axes set, for schedule literals.
func withAlgo(c config.Config, dataflow, format, sched int) config.Config {
	c[config.Dataflow], c[config.Format], c[config.SchedPolicy] = dataflow, format, sched
	return c
}

// ScenarioByName finds a corpus scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Corpus() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("verify: unknown scenario %q", name)
}

// buildMatrix realizes the scenario's matrix recipe.
func buildMatrix(s Scenario) (*matrix.COO, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	switch s.Gen {
	case "uniform":
		return matrix.Uniform(rng, s.Dim, s.Dim, s.NNZ), nil
	case "banded":
		return matrix.Banded(rng, s.Dim, s.NNZ, 6), nil
	case "rmat":
		return matrix.RMATDefault(rng, s.Dim, s.NNZ), nil
	case "strips":
		return matrix.DenseStrips(rng, s.Dim, 0.12, 3), nil
	default:
		return nil, fmt.Errorf("verify: unknown generator %q", s.Gen)
	}
}

// Workload builds the scenario's kernel workload (deterministic in Seed).
func (s Scenario) Workload() (kernels.Workload, error) {
	am, err := buildMatrix(s)
	if err != nil {
		return kernels.Workload{}, err
	}
	a := am.ToCSC()
	switch s.Kernel {
	case "spmspm":
		_, w, err := kernels.SpMSpM(a, am.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles)
		return w, err
	case "spmspv":
		x := matrix.RandomVec(rand.New(rand.NewSource(s.Seed+100)), a.Cols, 0.5)
		_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
		return w, err
	default:
		return kernels.Workload{}, fmt.Errorf("verify: unknown kernel %q", s.Kernel)
	}
}

// Source builds the scenario's kernel source (deterministic in Seed): the
// variant cache behind runs over the widened dataflow/format/scheduling
// action space.
func (s Scenario) Source() (*kernels.Source, error) {
	am, err := buildMatrix(s)
	if err != nil {
		return nil, err
	}
	a := am.ToCSC()
	switch s.Kernel {
	case "spmspm":
		return kernels.NewSpMSpMSource(s.Name, a, am.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles), nil
	case "spmspv":
		x := matrix.RandomVec(rand.New(rand.NewSource(s.Seed+100)), a.Cols, 0.5)
		return kernels.NewSpMSpVSource(s.Name, a, x, corpusChip.NGPE(), corpusChip.Tiles), nil
	default:
		return nil, fmt.Errorf("verify: unknown kernel %q", s.Kernel)
	}
}

// Model returns the corpus controller model (trained once per process).
func Model() (*core.Ensemble, error) { return corpusModel(power.EnergyEfficient, 1) }

// corpusModel trains the corpus sweep for mode on h-epoch telemetry
// windows, once per process (trainer.Model). The sweep is fixed —
// independent of experiment scales — so the decision sequences in golden
// files only move when the trainer, ml, sim or power layers change
// behavior, which is the point.
func corpusModel(mode power.Mode, h int) (*core.Ensemble, error) {
	sw := trainer.SweepSpec{
		Kernel: "spmspv", L1Type: config.CacheMode,
		Dims: []int{32, 64}, Densities: []float64{0.02, 0.08},
		BandwidthsGBps: []float64{0.5, 2},
		K:              4, Seed: 9, Chip: corpusChip,
		EpochScale: 0.05, Warmup: 1, Measure: 1,
	}
	ens, err := trainer.Model(context.Background(), nil, sw, mode, h, ml.TreeParams{Criterion: ml.Gini, MaxDepth: 6, MinSamplesLeaf: 3})
	if err != nil {
		return nil, fmt.Errorf("verify: training corpus model: %w", err)
	}
	return ens, nil
}

// EpochOutcome is one epoch of a scenario run, in the exact form the golden
// digests are computed over.
type EpochOutcome struct {
	Config       config.Config
	Reconfigured bool
	Result       sim.EpochResult
}

// RunOutcome is a full scenario execution.
type RunOutcome struct {
	Scenario Scenario
	Total    power.Metrics
	Epochs   []EpochOutcome
	Reconfig int
}

// Run executes the scenario through core.Drive and returns every epoch's
// outcome. Schedules and the widened-space controller run on the
// scenario's kernel source, on its work-aligned epoch grid, so a run that
// crosses the dataflow, format or scheduling axes rebinds onto the
// matching variant trace mid-run; the driven controller scenarios run on
// the natural trace alone (kernels.Fixed).
func Run(s Scenario) (*RunOutcome, error) {
	var res core.RunResult
	var err error
	if sched, ok := s.Schedule.(resilientSchedule); ok {
		res, err = runResilient(s, sched)
	} else {
		var src *kernels.Source
		var step core.Stepper
		if src, step, err = s.control(); err == nil {
			res, err = core.Drive(context.Background(), sim.New(corpusChip, corpusBW, s.Schedule.Start()), src, s.EpochScale, step)
		}
	}
	if err != nil {
		return nil, err
	}
	return outcomeOf(s, res), nil
}

// control returns the source a scenario runs on and the stepper deciding
// its epoch boundaries.
func (s Scenario) control() (*kernels.Source, core.Stepper, error) {
	opts := core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: s.EpochScale}
	switch sched := s.Schedule.(type) {
	case controllerSchedule:
		ens, err := Model()
		if err != nil {
			return nil, nil, err
		}
		src, err := s.Source()
		return src, core.NewController(ens, opts), err
	case adaptiveSchedule:
		ens, err := corpusModel(sched.mode, 1)
		if err != nil {
			return nil, nil, err
		}
		opts.Policy = sched.policy
		return s.natural(core.NewController(ens, opts))
	case historySchedule:
		ens, err := corpusModel(sched.mode, sched.h)
		if err != nil {
			return nil, nil, err
		}
		return s.natural(core.NewHistoryController(ens, opts, sched.h))
	default:
		src, err := s.Source()
		return src, scheduleStep{s}, err
	}
}

// natural pairs step with the scenario's natural trace alone.
func (s Scenario) natural(step core.Stepper) (*kernels.Source, core.Stepper, error) {
	w, err := s.Workload()
	return kernels.Fixed(w), step, err
}

// scheduleStep applies a Schedule's next configuration at every boundary.
type scheduleStep struct{ s Scenario }

func (st scheduleStep) Step(m *sim.Machine, b core.Boundary) (bool, bool, error) {
	next := st.s.Schedule.Next(b.Epoch, m.Config(), b.Result)
	if next == m.Config() {
		return false, false, nil
	}
	if _, err := m.Reconfigure(next); err != nil {
		return false, false, fmt.Errorf("verify: scenario %s epoch %d: %w", st.s.Name, b.Epoch, err)
	}
	return true, false, nil
}

// runResilient executes a resilient scenario on its natural trace,
// crashing it and resuming from the checkpoint when the schedule asks.
func runResilient(s Scenario, sched resilientSchedule) (core.RunResult, error) {
	w, err := s.Workload()
	if err != nil {
		return core.RunResult{}, err
	}
	ens, err := Model()
	if err != nil {
		return core.RunResult{}, err
	}
	spec, err := fault.ParseSpec(sched.faults)
	if err != nil {
		return core.RunResult{}, err
	}
	ropts := core.DefaultResilientOptions()
	ropts.Options = core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: s.EpochScale}
	ropts.DegradeEpochs = 1
	ropts.DegradeFactor = 1.5
	ropts.CheckpointEvery = 4
	controller := func(o core.ResilientOptions) *core.ResilientController {
		rc := core.NewResilientController(ens, o)
		rc.Inject = fault.New(spec)
		return rc
	}
	ctx, start := context.Background(), s.Schedule.Start()
	if sched.resumeAt == 0 {
		return controller(ropts).Run(ctx, sim.New(corpusChip, corpusBW, start), w)
	}
	dir, err := os.MkdirTemp("", "sparseadapt-verify-")
	if err != nil {
		return core.RunResult{}, err
	}
	defer os.RemoveAll(dir)
	ropts.CheckpointPath = filepath.Join(dir, "run.ck")
	crash := ropts
	crash.StopAfter = sched.resumeAt
	if _, err := controller(crash).Run(ctx, sim.New(corpusChip, corpusBW, start), w); err != nil {
		return core.RunResult{}, err
	}
	ck, err := core.LoadCheckpoint(ropts.CheckpointPath)
	if err != nil {
		return core.RunResult{}, err
	}
	return controller(ropts).Resume(ctx, sim.New(corpusChip, corpusBW, start), w, ck)
}

// outcomeOf converts a controller run into the golden outcome form.
func outcomeOf(s Scenario, res core.RunResult) *RunOutcome {
	out := &RunOutcome{Scenario: s, Total: res.Total, Reconfig: res.Reconfig}
	for _, ep := range res.Epochs {
		out.Epochs = append(out.Epochs, EpochOutcome{
			Config:       ep.Config,
			Reconfigured: ep.Reconfigured,
			Result: sim.EpochResult{
				Metrics: ep.Metrics, Counters: ep.Counters, Phase: ep.Phase,
			},
		})
	}
	return out
}
