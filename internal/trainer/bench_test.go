package trainer

import (
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
)

// syntheticDataset is a seeded stand-in for a small-scale sweep's dataset:
// rows come in phases of 30, every row of a phase is labelled with the
// phase's best configuration, and a row's counter features scatter around
// its phase's signature, as a sweep's evaluations of one phase do.
func syntheticDataset(rng *rand.Rand, rows int) *Dataset {
	ds := &Dataset{Mode: power.EnergyEfficient, L1Type: config.CacheMode}
	var best config.Config
	sig := make([]float64, core.NumFeatures-core.ConfigFeatureCount)
	for i := 0; i < rows; i++ {
		if i%30 == 0 {
			for _, p := range config.RuntimeParams {
				best[p] = rng.Intn(config.Cardinality(p))
			}
			for f := range sig {
				sig[f] = rng.ExpFloat64()
			}
		}
		x := make([]float64, 0, core.NumFeatures)
		for _, p := range config.RuntimeParams {
			x = append(x, float64(rng.Intn(config.Cardinality(p))))
		}
		for _, s := range sig {
			x = append(x, s*(1+0.1*rng.NormFloat64()))
		}
		ds.Examples = append(ds.Examples, Example{X: x, Y: best})
	}
	return ds
}

// BenchmarkTrainEnsemble fits one model's nine per-parameter trees with the
// default parameters on a dataset of a small-scale sweep's shape: 1050 rows
// of the 27 model features.
func BenchmarkTrainEnsemble(b *testing.B) {
	ds := syntheticDataset(rand.New(rand.NewSource(1)), 1050)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, ml.DefaultTreeParams()); err != nil {
			b.Fatal(err)
		}
	}
}
