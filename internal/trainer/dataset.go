package trainer

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Example is one training row: model inputs (current configuration +
// telemetry under it) and the target best configuration for the phase
// (Figure 4b).
type Example struct {
	X []float64
	Y config.Config
}

// Dataset is a labelled training set for one optimization mode and L1 type.
type Dataset struct {
	Mode     power.Mode
	L1Type   int
	Examples []Example
}

// SweepSpec describes a Table 3 training-data sweep. The paper sweeps
// matrix dimension ×2, density ×2 and bandwidth ×10 over uniform-random
// inputs; Scale shrinks the grid for bounded runtimes while keeping its
// structure.
type SweepSpec struct {
	Kernel         string // "spmspm" or "spmspv"
	L1Type         int
	Dims           []int
	Densities      []float64
	BandwidthsGBps []float64
	K              int // random samples per phase (step 1 of the search)
	// PinDataflow / PinFormat, when non-empty, pin the corresponding
	// algorithm axis for the whole sweep ("outer"/"inner"/"row",
	// "csr"/"csc"/"coo"): every candidate the search evaluates is projected
	// onto the pinned variant. Empty = the search roams the axis.
	PinDataflow string
	PinFormat   string
	Seed        int64
	Chip        power.Chip
	EpochScale  float64
	Warmup      int
	Measure     int
}

// DefaultSweep returns a scaled version of the paper's Table 3 sweep.
// scale 1 approximates the paper's grid; smaller values shrink dimensions
// and grid points proportionally.
func DefaultSweep(kernel string, l1Type int, scale float64) SweepSpec {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	sw := SweepSpec{
		Kernel: kernel,
		L1Type: l1Type,
		K:      maxI(6, int(24*scale)),
		Seed:   1,
		Chip:   power.Chip{Tiles: 2, GPEsPerTile: 8},
		Warmup: 1, Measure: 2,
	}
	switch kernel {
	case "spmspm":
		sw.Dims = scaleDims([]int{128, 256, 512, 1024}, scale)
		sw.EpochScale = scale
	case "spmspv":
		sw.Dims = scaleDims([]int{256, 1024, 4096, 8192}, scale)
		sw.EpochScale = scale
	default:
		sw.Dims = scaleDims([]int{256, 512}, scale)
		sw.EpochScale = scale
	}
	sw.Densities = []float64{0.002, 0.008, 0.032, 0.13}
	// The paper sweeps 0.01→100 GB/s in ×10 steps; the grid here adds
	// mid-band points so the deployment regime (~1 GB/s) is as well covered
	// as the extremes.
	sw.BandwidthsGBps = []float64{0.01, 0.1, 0.5, 1, 2, 5, 10, 100}
	if scale < 0.5 {
		sw.Dims = sw.Dims[:2]
		sw.Densities = []float64{0.008, 0.05}
		sw.BandwidthsGBps = []float64{0.1, 0.5, 1, 2, 10}
	}
	return sw
}

func scaleDims(dims []int, scale float64) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		v := int(float64(d) * scale)
		if v < 32 {
			v = 32
		}
		out[i] = v
	}
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// buildSource constructs the kernel source for one sweep input; the
// source lazily traces each algorithm variant (dataflow/format/sched) the
// configuration searches touch.
func buildSource(sw SweepSpec, rng *rand.Rand, dim int, density float64) (*kernels.Source, error) {
	nnz := int(density * float64(dim) * float64(dim))
	if nnz < dim {
		nnz = dim
	}
	am := matrix.Uniform(rng, dim, dim, nnz)
	a := am.ToCSC()
	name := fmt.Sprintf("%s-%dx%d", sw.Kernel, dim, dim)
	switch sw.Kernel {
	case "spmspm":
		return kernels.NewSpMSpMSource(name, a, am.ToCSR(), sw.Chip.NGPE(), sw.Chip.Tiles), nil
	case "spmspv":
		x := matrix.RandomVec(rng, dim, 0.5)
		return kernels.NewSpMSpVSource(name, a, x, sw.Chip.NGPE(), sw.Chip.Tiles), nil
	default:
		return nil, fmt.Errorf("trainer: unknown kernel %q", sw.Kernel)
	}
}

// sweepPins resolves the sweep's algorithm-axis pins to evaluator pins.
func sweepPins(sw SweepSpec) (map[config.Param]int, error) {
	pins := map[config.Param]int{}
	if sw.PinDataflow != "" {
		v, err := config.DataflowByName(sw.PinDataflow)
		if err != nil {
			return nil, err
		}
		pins[config.Dataflow] = v
	}
	if sw.PinFormat != "" {
		v, err := config.FormatByName(sw.PinFormat)
		if err != nil {
			return nil, err
		}
		pins[config.Format] = v
	}
	if len(pins) == 0 {
		return nil, nil
	}
	return pins, nil
}

// Generate runs the sweep and constructs the training dataset for one
// optimization mode: for every (input, bandwidth, phase) it finds the
// phase's best configuration and emits one example per configuration
// evaluated during the search — the insight of Section 4.2 that yields K×
// more training data than profiling-configuration approaches and teaches
// the model to predict from *any* configuration. It runs serially; use
// GenerateEngine to run the sweep points in parallel.
func Generate(sw SweepSpec, mode power.Mode) (*Dataset, error) {
	return GenerateEngine(context.Background(), nil, sw, mode, 1)
}

// sweepHasher starts a key in domain over every input of a sweep but its
// grid: the kernel, the algorithm pins, the L1 type, the mode, the
// telemetry window h, the chip, the epoch scale, the warm-up and measured
// epochs, K and the seed.
func sweepHasher(domain string, sw SweepSpec, mode power.Mode, h int) *engine.Hasher {
	return engine.NewHasher(domain).
		Str(sw.Kernel).Str(sw.PinDataflow).Str(sw.PinFormat).
		Int(sw.L1Type, int(mode), h).
		Int(sw.Chip.Tiles, sw.Chip.GPEsPerTile).
		F64(sw.EpochScale).Int(sw.Warmup, sw.Measure, sw.K).
		I64(sw.Seed)
}

// sweepPoint is one independent unit of dataset generation: a (matrix
// dimension, density, bandwidth) cell of the Table 3 grid.
type sweepPoint struct {
	di, fi, bi int
}

// GenerateEngine runs the Table 3 sweep on the execution engine: kernel
// sources are built in parallel (one task per (dim, density) input), then
// every (input, bandwidth) sweep point searches its phases' best
// configurations over the widened action space — each candidate
// configuration measured on its own dataflow/format/scheduling variant —
// as one task. Each task derives its own RNG from the sweep seed and its
// grid coordinates rather than advancing a shared math/rand stream, and
// examples are concatenated in grid order — both are what make the dataset
// byte-identical at 1 and N workers. Sweep-point results are
// content-addressed by the full sweep parameters, so warmed caches skip
// the configuration searches entirely. A nil eng runs serially uncached.
func GenerateEngine(ctx context.Context, eng *engine.Engine, sw SweepSpec, mode power.Mode, h int) (*Dataset, error) {
	if h < 1 {
		h = 1
	}
	pins, err := sweepPins(sw)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Mode: mode, L1Type: sw.L1Type}

	// Phase 1: build the sweep inputs, one task per (dim, density). The
	// workload RNG is derived from the grid coordinates so the matrix is
	// independent of generation order. Traces are large and cheap to rebuild
	// relative to the searches, so workload tasks are not cached. Each task
	// also traces the source's natural variant so the phase-2 cache keys can
	// be computed without serial trace builds.
	type input struct{ di, fi int }
	var inputs []input
	for di := range sw.Dims {
		for fi := range sw.Densities {
			inputs = append(inputs, input{di, fi})
		}
	}
	wtasks := make([]engine.Task[*kernels.Source], len(inputs))
	for i, in := range inputs {
		in := in
		wtasks[i] = engine.Task[*kernels.Source]{Compute: func(ctx context.Context) (*kernels.Source, error) {
			rng := rand.New(rand.NewSource(engine.DeriveSeed(sw.Seed, 0x11, int64(in.di), int64(in.fi))))
			src, err := buildSource(sw, rng, sw.Dims[in.di], sw.Densities[in.fi])
			if err != nil {
				return nil, err
			}
			if _, err := src.Variant(config.Baseline); err != nil {
				return nil, err
			}
			return src, nil
		}}
	}
	sources, err := engine.Map(ctx, eng, wtasks)
	if err != nil {
		return nil, err
	}
	byInput := map[input]*kernels.Source{}
	for i, in := range inputs {
		byInput[in] = sources[i]
	}

	// Phase 2: run the best-configuration searches, one task per sweep
	// point, and stitch the example chunks back in grid order.
	var pts []sweepPoint
	for di := range sw.Dims {
		for fi := range sw.Densities {
			for bi := range sw.BandwidthsGBps {
				pts = append(pts, sweepPoint{di, fi, bi})
			}
		}
	}
	tasks := make([]engine.Task[[]Example], len(pts))
	for i, pt := range pts {
		pt := pt
		src := byInput[input{pt.di, pt.fi}]
		nat, err := src.Variant(config.Baseline) // cached: traced by the phase-1 task
		if err != nil {
			return nil, err
		}
		key := sweepHasher("sparseadapt/trainer-point/v3", sw, mode, h).
			Int(sw.Dims[pt.di]).F64(sw.Densities[pt.fi]).F64(sw.BandwidthsGBps[pt.bi]).
			U64(nat.Trace.Fingerprint()).Sum()
		tasks[i] = engine.Task[[]Example]{Key: key, Compute: func(ctx context.Context) ([]Example, error) {
			rng := rand.New(rand.NewSource(engine.DeriveSeed(sw.Seed, 0x22, int64(pt.di), int64(pt.fi), int64(pt.bi))))
			ev, err := NewSourceEvaluator(sw.Chip, sw.BandwidthsGBps[pt.bi]*1e9, src, sw.EpochScale, sw.Warmup, sw.Measure)
			if err != nil {
				return nil, err
			}
			ev.Pins = pins
			// The search RNG seed does not depend on the mode, so the PP and
			// EE passes over one sweep point evaluate the same configurations;
			// the shared replay memo lets the second pass reuse the first
			// pass's simulations (results are byte-identical either way).
			ev.Memo = sim.SharedRunMemo()
			var out []Example
			for _, phase := range ev.Phases() {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				best, evals, err := ev.BestConfig(rng, sw.K, sw.L1Type, phase, mode)
				if err != nil {
					return nil, err
				}
				for _, e := range evals {
					var x []float64
					if h == 1 {
						x = core.BuildFeatures(e.Config, e.Counters)
					} else {
						x = core.BuildHistoryFeatures(e.Config, e.Window, h)
					}
					out = append(out, Example{X: x, Y: best})
				}
			}
			return out, nil
		}}
	}
	chunks, err := engine.Map(ctx, eng, tasks)
	if err != nil {
		return nil, err
	}
	for _, c := range chunks {
		ds.Examples = append(ds.Examples, c...)
	}
	if len(ds.Examples) == 0 {
		return nil, fmt.Errorf("trainer: sweep produced no examples")
	}
	return ds, nil
}

// Train fits one decision tree per runtime parameter on the dataset and
// returns the ensemble. The trees share one presorted feature matrix.
func Train(ds *Dataset, params ml.TreeParams) (*core.Ensemble, error) {
	x := make([][]float64, len(ds.Examples))
	for i, e := range ds.Examples {
		x[i] = e.X
	}
	ps, err := ml.Presort(x)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	ens := &core.Ensemble{Trees: map[config.Param]*ml.Tree{}, Mode: ds.Mode}
	for _, p := range config.RuntimeParams {
		y := make([]int, len(ds.Examples))
		for i, e := range ds.Examples {
			y[i] = e.Y[p]
		}
		t, err := ps.TrainTree(y, params)
		if err != nil {
			return nil, fmt.Errorf("trainer: parameter %v: %w", p, err)
		}
		ens.Trees[p] = t
	}
	return ens, nil
}

// models memoizes Model's ensembles by modelKey for the life of the
// process.
var models = struct {
	sync.Mutex
	ens map[engine.Key]*core.Ensemble
}{ens: map[engine.Key]*core.Ensemble{}}

// Model returns the ensemble Train fits with params to the dataset
// GenerateEngine builds from sw for mode on h-epoch telemetry, trained
// once per process. Its key covers every input (eng only changes how fast
// the sweep runs), so a model never depends on what the process trained
// before it. The lock is held across training, so concurrent callers
// wanting the same model wait for one training run instead of duplicating
// it. Callers must not modify the returned ensemble.
func Model(ctx context.Context, eng *engine.Engine, sw SweepSpec, mode power.Mode, h int, params ml.TreeParams) (*core.Ensemble, error) {
	if h < 1 {
		h = 1
	}
	key := modelKey(sw, mode, h, params)
	models.Lock()
	defer models.Unlock()
	if ens, ok := models.ens[key]; ok {
		return ens, nil
	}
	ds, err := GenerateEngine(ctx, eng, sw, mode, h)
	if err != nil {
		return nil, err
	}
	ens, err := Train(ds, params)
	if err != nil {
		return nil, err
	}
	models.ens[key] = ens
	return ens, nil
}

// modelKey is Model's sparseadapt/model/v1 key: the sweep's non-grid
// inputs, each grid slice with its length, and every tree parameter.
func modelKey(sw SweepSpec, mode power.Mode, h int, params ml.TreeParams) engine.Key {
	k := sweepHasher("sparseadapt/model/v1", sw, mode, h).Int(len(sw.Dims)).Int(sw.Dims...)
	for _, grid := range [][]float64{sw.Densities, sw.BandwidthsGBps} {
		k.Int(len(grid))
		for _, v := range grid {
			k.F64(v)
		}
	}
	return k.Int(int(params.Criterion), params.MaxDepth, params.MinSamplesLeaf).Sum()
}

// TrainCV grid-searches tree hyperparameters with k-fold cross-validation
// per parameter (the paper's methodology, Section 5.1) before fitting.
func TrainCV(ds *Dataset, depths, minLeafs []int, folds int) (*core.Ensemble, error) {
	x := make([][]float64, len(ds.Examples))
	for i, e := range ds.Examples {
		x[i] = e.X
	}
	ps, err := ml.Presort(x)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	ens := &core.Ensemble{Trees: map[config.Param]*ml.Tree{}, Mode: ds.Mode}
	for _, p := range config.RuntimeParams {
		y := make([]int, len(ds.Examples))
		for i, e := range ds.Examples {
			y[i] = e.Y[p]
		}
		best, _, err := ml.GridSearchTree(x, y, depths, minLeafs, folds, 1)
		if err != nil {
			return nil, err
		}
		t, err := ps.TrainTree(y, best)
		if err != nil {
			return nil, err
		}
		ens.Trees[p] = t
	}
	return ens, nil
}
