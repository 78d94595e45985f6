package oracle

import (
	"math/rand"
	"reflect"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

var chip = power.Chip{Tiles: 2, GPEsPerTile: 8}

func record(t *testing.T, nCfg int) *Recording {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	am := matrix.Uniform(rng, 96, 96, 900)
	_, w, _ := kernels.SpMSpM(am.ToCSC(), am.ToCSR(), chip.NGPE(), chip.Tiles)
	cfgs := SampleConfigs(rng, nCfg, config.CacheMode)
	rec, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecordShape(t *testing.T) {
	rec := record(t, 10)
	if len(rec.Grid) != len(rec.Configs) {
		t.Fatalf("grid rows %d configs %d", len(rec.Grid), len(rec.Configs))
	}
	for s := range rec.Grid {
		if len(rec.Grid[s]) != len(rec.Epochs) {
			t.Fatalf("row %d has %d epochs, want %d", s, len(rec.Grid[s]), len(rec.Epochs))
		}
		for e, r := range rec.Grid[s] {
			if r.Metrics.TimeSec <= 0 {
				t.Fatalf("cell (%d,%d) has no time", s, e)
			}
		}
	}
}

func TestRecordErrors(t *testing.T) {
	if _, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(kernels.Workload{}), 1, nil); err == nil {
		t.Fatal("empty config set accepted")
	}
}

func TestSampleConfigsPinsStandards(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfgs := SampleConfigs(rng, 20, config.CacheMode)
	found := map[int]bool{}
	for _, c := range cfgs {
		found[c.Index()] = true
		if c.L1IsSPM() {
			t.Fatal("SPM config in cache sample")
		}
	}
	for _, want := range []config.Config{config.Baseline, config.BestAvgCache, config.MaxCfg} {
		if !found[want.Index()] {
			t.Fatalf("standard config %v not pinned", want)
		}
	}
	spm := SampleConfigs(rng, 10, config.SPMMode)
	foundSPM := false
	for _, c := range spm {
		if c.Index() == config.BestAvgSPM.Index() {
			foundSPM = true
		}
	}
	if !foundSPM {
		t.Fatal("BestAvgSPM not pinned in SPM sample")
	}
}

func TestHierarchyOfSchemes(t *testing.T) {
	rec := record(t, 16)
	for _, mode := range []power.Mode{power.EnergyEfficient, power.PowerPerformance} {
		_, statics := rec.IdealStatic(mode)
		greedySeq, greedy := rec.IdealGreedy(mode)
		oracleSeq, orc := rec.Oracle(mode)

		if len(greedySeq) != len(rec.Epochs) || len(oracleSeq) != len(rec.Epochs) {
			t.Fatal("sequence length mismatch")
		}
		// The Oracle must beat or match Ideal Static (it can always hold one
		// config for the whole run).
		if orc.Score(mode) < statics.Score(mode)*0.999 {
			t.Fatalf("%v: oracle (%.4g) worse than ideal static (%.4g)",
				mode, orc.Score(mode), statics.Score(mode))
		}
		// The Oracle accounts transitions; greedy ignores future costs, so
		// oracle ≥ greedy is expected up to scalarization approximation.
		if orc.Score(mode) < greedy.Score(mode)*0.98 {
			t.Fatalf("%v: oracle (%.4g) clearly worse than greedy (%.4g)",
				mode, orc.Score(mode), greedy.Score(mode))
		}
	}
}

func TestSequenceMetricsConsistent(t *testing.T) {
	rec := record(t, 8)
	seq, tot := rec.IdealGreedy(power.EnergyEfficient)
	if re := rec.SequenceMetrics(seq); re != tot {
		t.Fatalf("SequenceMetrics disagrees: %+v vs %+v", re, tot)
	}
	// A constant sequence equals the static sum (no transitions).
	constSeq := make([]int, len(rec.Epochs))
	var want power.Metrics
	for e := range rec.Epochs {
		want.Add(rec.Grid[0][e].Metrics)
	}
	if got := rec.SequenceMetrics(constSeq); got != want {
		t.Fatalf("constant sequence metrics wrong: %+v vs %+v", got, want)
	}
}

func TestOracleBeatsProfileAdapt(t *testing.T) {
	rec := record(t, 16)
	for _, mode := range []power.Mode{power.EnergyEfficient, power.PowerPerformance} {
		_, orc := rec.Oracle(mode)
		naive := rec.ProfileAdapt(mode, true)
		ideal := rec.ProfileAdapt(mode, false)
		if naive.Score(mode) > orc.Score(mode) {
			t.Fatalf("%v: naive ProfileAdapt beat the oracle", mode)
		}
		// The ideal variant switches less, so it should not be worse than
		// the naive one.
		if ideal.Score(mode) < naive.Score(mode)*0.999 {
			t.Fatalf("%v: ideal ProfileAdapt (%.4g) worse than naive (%.4g)",
				mode, ideal.Score(mode), naive.Score(mode))
		}
		// Work is conserved in the stitched schedules.
		if naive.FPOps != orc.FPOps {
			t.Fatalf("FP ops not conserved: %v vs %v", naive.FPOps, orc.FPOps)
		}
	}
}

func TestTransitionPricing(t *testing.T) {
	rec := record(t, 8)
	// Identity transitions are free.
	if tr := rec.transition(3, 3, 1); tr != (power.Metrics{}) {
		t.Fatalf("self transition not free: %+v", tr)
	}
	// Find two configs differing in a flushing parameter.
	for a := range rec.Configs {
		for b := range rec.Configs {
			cls := config.Classify(rec.Configs[a], rec.Configs[b])
			if cls.FlushL1 || cls.FlushL2 {
				tr := rec.transition(a, b, 1)
				if tr.TimeSec <= 0 {
					t.Fatalf("flushing transition has no cost: %v -> %v", rec.Configs[a], rec.Configs[b])
				}
				return
			}
		}
	}
	t.Skip("sample contained no flushing pair")
}

func TestProfileIndexPrefersMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	am := matrix.Uniform(rng, 64, 64, 400)
	x := matrix.RandomVec(rng, 64, 0.5)
	_, w, _ := kernels.SpMSpV(am.ToCSC(), x, chip.NGPE(), chip.Tiles)
	cfgs := []config.Config{config.Baseline, config.MaxCfg, config.BestAvgCache}
	rec, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.1, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.profileIndex(); rec.Configs[got] != config.MaxCfg {
		t.Fatalf("profiling config should be MaxCfg, got %v", rec.Configs[got])
	}
}

// TestRowKeyCoversEveryInput perturbs each input of a recording row one at
// a time and requires the row key to change: a key that under-hashes
// would let a warm cache serve one row's replay for another.
func TestRowKeyCoversEveryInput(t *testing.T) {
	spmspv := func(seed int64) (*kernels.Source, kernels.Workload) {
		rng := rand.New(rand.NewSource(seed))
		am := matrix.Uniform(rng, 96, 96, 900)
		src := kernels.NewSpMSpVSource("kv", am.ToCSC(), matrix.RandomVec(rng, 96, 0.5), chip.NGPE(), chip.Tiles)
		w, err := src.Variant(config.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		return src, w
	}
	src, nat := spmspv(1)
	_, other := spmspv(2)
	doubled := nat
	doubled.EpochFPOps *= 2

	type input struct {
		src   *kernels.Source
		chip  power.Chip
		bw    float64
		cfg   config.Config
		scale float64
	}
	key := func(in input) [32]byte {
		_, rows, err := plan(in.chip, in.bw, in.src, in.scale, []config.Config{in.cfg})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0].key
	}
	base := input{kernels.Fixed(nat), chip, sim.DefaultBandwidth, config.Baseline, 0.05}
	perturb := map[string]func(in input) input{
		"trace content":      func(in input) input { in.src = kernels.Fixed(other); return in },
		"tiles":              func(in input) input { in.chip.Tiles *= 2; return in },
		"GPEs per tile":      func(in input) input { in.chip.GPEsPerTile *= 2; return in },
		"bandwidth":          func(in input) input { in.bw *= 2; return in },
		"configuration":      func(in input) input { in.cfg = config.MaxCfg; return in },
		"epoch scale":        func(in input) input { in.scale *= 2; return in },
		"fixed EpochFPOps":   func(in input) input { in.src = kernels.Fixed(doubled); return in },
		"quantile vs budget": func(in input) input { in.src = src; return in },
	}
	// The last perturbation keeps the trace and the epoch count: only the
	// grid's boundaries differ.
	budget := nat.Epochs(base.scale)
	_, quantile, err := src.Grid(config.Baseline, base.scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(quantile) != len(budget) || reflect.DeepEqual(quantile, budget) {
		t.Fatalf("want equally long, different grids: %d budget vs %d quantile epochs", len(budget), len(quantile))
	}
	want := key(base)
	for name, p := range perturb {
		if key(p(base)) == want {
			t.Errorf("row key ignores the %s", name)
		}
	}
}
