package sim_test

import (
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// BenchmarkSimReplay replays two seeded kernel traces on the 2×8 chip —
// SpMSpV over a uniform 12k-nonzero matrix and outer-product SpMSpM over a
// uniform 4k-nonzero one — under a private-cache, a shared-cache and a
// scratchpad configuration. Each iteration replays the whole epoch grid on
// a fresh machine, as one oracle row does, and the benchmark reports the
// host time per replayed memory event.
func BenchmarkSimReplay(b *testing.B) {
	chip := power.Chip{Tiles: 2, GPEsPerTile: 8}
	nGPE, nLCP := chip.NGPE(), chip.Tiles
	rng := rand.New(rand.NewSource(1))
	a := matrix.Uniform(rng, 1500, 1500, 12000).ToCSC()
	x := matrix.RandomVec(rng, 1500, 0.5)
	_, spmspv, err := kernels.SpMSpVVariant(a, x, nGPE, nLCP, kernels.AlgoKey{Format: config.FmtCSC})
	if err != nil {
		b.Fatal(err)
	}
	am := matrix.Uniform(rng, 1300, 1300, 4000).ToCSC()
	bm := matrix.Uniform(rng, 1300, 1300, 4000).ToCSR()
	_, spmspm, err := kernels.SpMSpMVariant(am, bm, nGPE, nLCP, kernels.AlgoKey{Dataflow: config.DFOuter, Format: config.FmtCSC})
	if err != nil {
		b.Fatal(err)
	}
	private := config.Baseline
	private[config.L1Share], private[config.L2Share] = config.Private, config.Private
	configs := []struct {
		name string
		cfg  config.Config
	}{
		{"cache-private", private},
		{"cache-shared", config.Baseline},
		{"spm", config.BestAvgSPM},
	}
	for _, w := range []kernels.Workload{spmspv, spmspm} {
		eps := w.Epochs(1)
		memEvents := 0
		for _, e := range w.Trace.Events {
			if e.Kind.IsMem() {
				memEvents++
			}
		}
		for _, c := range configs {
			b.Run(w.Name+"/"+c.name, func(b *testing.B) {
				replay := func() {
					m := sim.New(chip, sim.DefaultBandwidth, c.cfg)
					m.BindTrace(w.Trace)
					for _, ep := range eps {
						m.RunEpoch(ep)
					}
				}
				replay() // builds the trace's per-epoch replay index untimed
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					replay()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(memEvents), "ns/mem-event")
			})
		}
	}
}
