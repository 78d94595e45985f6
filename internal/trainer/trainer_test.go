package trainer

import (
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

var chip = power.Chip{Tiles: 2, GPEsPerTile: 8}

func smallWorkload(t *testing.T, kernel string, seed int64) kernels.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	am := matrix.Uniform(rng, 96, 96, 900)
	a := am.ToCSC()
	switch kernel {
	case "spmspm":
		_, w, _ := kernels.SpMSpM(a, am.ToCSR(), chip.NGPE(), chip.Tiles)
		return w
	default:
		x := matrix.RandomVec(rng, 96, 0.5)
		_, w, _ := kernels.SpMSpV(a, x, chip.NGPE(), chip.Tiles)
		return w
	}
}

// fixedEvaluator measures every configuration on w's own trace.
func fixedEvaluator(t *testing.T, w kernels.Workload, epochScale float64) *Evaluator {
	t.Helper()
	ev, err := NewSourceEvaluator(chip, sim.DefaultBandwidth, kernels.Fixed(w), epochScale, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEvaluatorPhases(t *testing.T) {
	w := smallWorkload(t, "spmspm", 1)
	ev := fixedEvaluator(t, w, 0.05)
	ph := ev.Phases()
	if len(ph) != 2 || ph[0] != "multiply" || ph[1] != "merge" {
		t.Fatalf("phases %v", ph)
	}
}

func TestEvaluatorDeterministicAndCached(t *testing.T) {
	w := smallWorkload(t, "spmspv", 2)
	ev := fixedEvaluator(t, w, 0.1)
	phase := ev.Phases()[0]
	a, err := ev.Eval(config.Baseline, phase)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Eval(config.Baseline, phase)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatal("cached evaluation differs")
	}
	ev2 := fixedEvaluator(t, w, 0.1)
	c, err := ev2.Eval(config.Baseline, phase)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != c.Metrics {
		t.Fatal("evaluation not deterministic across evaluators")
	}
	if _, err := ev.Eval(config.Baseline, "nope"); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

func TestBestConfigImprovesOnAverage(t *testing.T) {
	w := smallWorkload(t, "spmspv", 3)
	ev := fixedEvaluator(t, w, 0.1)
	phase := ev.Phases()[0]
	rng := rand.New(rand.NewSource(7))
	best, evals, err := ev.BestConfig(rng, 8, config.CacheMode, phase, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Valid() || best[config.L1Type] != config.CacheMode {
		t.Fatalf("bad best config %v", best)
	}
	if len(evals) < 8 {
		t.Fatalf("too few evaluations recorded: %d", len(evals))
	}
	// The combined sweep point must score at least as well as the mean of
	// the random samples.
	bestEval, err := ev.Eval(best, phase)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, e := range evals[:8] {
		mean += e.Metrics.Score(power.EnergyEfficient)
	}
	mean /= 8
	if bestEval.Metrics.Score(power.EnergyEfficient) < mean {
		t.Fatalf("search result (%v) worse than random mean (%v)",
			bestEval.Metrics.Score(power.EnergyEfficient), mean)
	}
}

func TestDefaultSweepShapes(t *testing.T) {
	for _, k := range []string{"spmspm", "spmspv"} {
		sw := DefaultSweep(k, config.CacheMode, 0.1)
		if len(sw.Dims) == 0 || len(sw.Densities) == 0 || len(sw.BandwidthsGBps) == 0 {
			t.Fatalf("%s: empty sweep %+v", k, sw)
		}
		if sw.K < 4 {
			t.Fatalf("%s: K too small", k)
		}
	}
}

func tinySweep(kernel string) SweepSpec {
	return SweepSpec{
		Kernel: kernel, L1Type: config.CacheMode,
		Dims: []int{64}, Densities: []float64{0.03},
		BandwidthsGBps: []float64{1},
		K:              4, Seed: 1, Chip: chip,
		EpochScale: 0.05, Warmup: 1, Measure: 2,
	}
}

func TestGenerateAndTrain(t *testing.T) {
	ds, err := Generate(tinySweep("spmspv"), power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Examples) < 20 {
		t.Fatalf("too few examples: %d", len(ds.Examples))
	}
	for _, e := range ds.Examples {
		if len(e.X) != core.NumFeatures {
			t.Fatalf("feature width %d", len(e.X))
		}
		if !e.Y.Valid() {
			t.Fatalf("invalid label %v", e.Y)
		}
	}
	ens, err := Train(ds, ml.DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range config.RuntimeParams {
		if ens.Trees[p] == nil {
			t.Fatalf("missing tree for %v", p)
		}
	}
	// Predictions must be valid configurations preserving L1 type.
	got := ens.Predict(config.Baseline, sim.Counters{ClockMHz: 1000})
	if !got.Valid() || got[config.L1Type] != config.CacheMode {
		t.Fatalf("bad prediction %v", got)
	}
}

func TestGenerateUnknownKernel(t *testing.T) {
	sw := tinySweep("nope")
	if _, err := Generate(sw, power.EnergyEfficient); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestTrainCV(t *testing.T) {
	ds, err := Generate(tinySweep("spmspv"), power.PowerPerformance)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := TrainCV(ds, []int{4, 8}, []int{1, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Trees) != len(config.RuntimeParams) {
		t.Fatalf("tree count %d", len(ens.Trees))
	}
	if ens.Mode != power.PowerPerformance {
		t.Fatal("mode not preserved")
	}
}

// End-to-end: a model trained on a small sweep should steer the controller
// to a better efficiency score than the static baseline on a memory-bound
// input it has not seen.
func TestTrainedModelBeatsBaseline(t *testing.T) {
	ds, err := Generate(SweepSpec{
		Kernel: "spmspv", L1Type: config.CacheMode,
		Dims: []int{64, 128}, Densities: []float64{0.02, 0.08},
		BandwidthsGBps: []float64{0.5, 1, 4},
		K:              6, Seed: 2, Chip: chip,
		EpochScale: 0.05, Warmup: 1, Measure: 2,
	}, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := Train(ds, ml.DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(t, "spmspv", 99)
	static := core.RunStatic(chip, sim.DefaultBandwidth, config.Baseline, w, 0.05)
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	ctl := core.NewController(ens, core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: 0.05})
	dyn := ctl.Run(m, w)
	sS := static.Total.Score(power.EnergyEfficient)
	sD := dyn.Total.Score(power.EnergyEfficient)
	if sD < sS*0.95 {
		t.Fatalf("trained SparseAdapt (%.3g) clearly worse than Baseline (%.3g)", sD, sS)
	}
	t.Logf("efficiency gain over baseline: %.2fx (reconfigs %d)", sD/sS, dyn.Reconfig)
}
