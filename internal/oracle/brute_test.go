package oracle

import (
	"math"
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// bruteForceMinEnergy enumerates every configuration sequence of the
// recording and returns the minimum total energy (the exact Energy-
// Efficient-mode optimum, since FP work is sequence-invariant).
func bruteForceMinEnergy(rec *Recording) (float64, []int) {
	S, E := len(rec.Configs), len(rec.Epochs)
	bestE := math.Inf(1)
	var bestSeq []int
	seq := make([]int, E)
	var walk func(e int)
	walk = func(e int) {
		if e == E {
			m := rec.SequenceMetrics(seq)
			if m.EnergyJ < bestE {
				bestE = m.EnergyJ
				bestSeq = append([]int{}, seq...)
			}
			return
		}
		for s := 0; s < S; s++ {
			seq[e] = s
			walk(e + 1)
		}
	}
	walk(0)
	return bestE, bestSeq
}

// TestOracleMatchesBruteForce checks the DAG shortest path against
// exhaustive enumeration on a small instance. Energy-Efficient mode is an
// exact additive objective, so the Oracle must find the true optimum.
func TestOracleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	am := matrix.Uniform(rng, 48, 48, 300)
	x := matrix.RandomVec(rng, 48, 0.5)
	_, w, _ := kernels.SpMSpV(am.ToCSC(), x, chip.NGPE(), chip.Tiles)

	// Keep the instance tiny: 4 configs, and clamp epochs by a coarse
	// epoch scale.
	cfgs := []config.Config{config.Baseline, config.BestAvgCache, config.MaxCfg,
		{config.CacheMode, config.Shared, config.Shared, 1, 1, 2, 0}}
	epochScale := 0.3
	for len(w.Epochs(epochScale)) > 7 {
		epochScale *= 2
	}
	rec, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(w), epochScale, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Epochs) < 2 {
		t.Skip("too few epochs for a meaningful path")
	}

	wantE, wantSeq := bruteForceMinEnergy(rec)
	_, got := rec.Oracle(power.EnergyEfficient)
	if got.EnergyJ > wantE*(1+1e-9) {
		t.Fatalf("oracle energy %v, brute force found %v (seq %v)", got.EnergyJ, wantE, wantSeq)
	}
}

// TestOraclePowerPerfNearBruteForce checks the iteratively re-weighted
// shortest path against enumeration on the non-additive T²E objective; the
// paper itself calls the construction an approximate global optimum, so a
// small slack is allowed.
func TestOraclePowerPerfNearBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	am := matrix.Uniform(rng, 48, 48, 300)
	x := matrix.RandomVec(rng, 48, 0.5)
	_, w, _ := kernels.SpMSpV(am.ToCSC(), x, chip.NGPE(), chip.Tiles)

	cfgs := []config.Config{config.Baseline, config.BestAvgCache, config.MaxCfg}
	epochScale := 0.3
	for len(w.Epochs(epochScale)) > 6 {
		epochScale *= 2
	}
	rec, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(w), epochScale, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Epochs) < 2 {
		t.Skip("too few epochs")
	}

	// Brute force on the true objective.
	S, E := len(rec.Configs), len(rec.Epochs)
	best := -1.0
	seq := make([]int, E)
	var walk func(e int)
	walk = func(e int) {
		if e == E {
			if s := rec.SequenceMetrics(seq).Score(power.PowerPerformance); s > best {
				best = s
			}
			return
		}
		for s := 0; s < S; s++ {
			seq[e] = s
			walk(e + 1)
		}
	}
	walk(0)

	_, got := rec.Oracle(power.PowerPerformance)
	if got.Score(power.PowerPerformance) < best*0.95 {
		t.Fatalf("PP oracle score %v more than 5%% below brute force %v",
			got.Score(power.PowerPerformance), best)
	}
}
