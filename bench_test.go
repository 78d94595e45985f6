// Package sparseadapt_test is the benchmark harness of the reproduction:
// one testing.B benchmark per paper table/figure (Section 6). Each
// benchmark regenerates the corresponding report at the test scale and
// publishes the headline number (usually the geometric-mean SparseAdapt
// gain over Baseline) as a custom benchmark metric, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. Larger scales are available through the CLI
// (`sparseadapt exp <id> -scale small|paper`).
package sparseadapt_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// run executes the experiment once per benchmark iteration and reports
// headline metrics extracted from the named columns of its GM (or last)
// row.
func run(b *testing.B, id string, metricCols map[string]string) {
	b.Helper()
	sc := experiments.TestScale()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		last := rep.Rows[len(rep.Rows)-1]
		for col, metric := range metricCols {
			for j, c := range rep.Columns {
				if c == col && j < len(last.Values) {
					b.ReportMetric(last.Values[j], metric)
				}
			}
		}
	}
}

// BenchmarkFigure1 regenerates the motivation timeline: dynamic vs best
// static on the dense-strip OP-SpMSpM (paper: 22.6% faster, 1.5x energy).
func BenchmarkFigure1(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("fig1")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				switch row.Label {
				case "speedup-vs-static":
					b.ReportMetric(row.Values[0], "speedup-x")
				case "energy-gain-vs-static":
					b.ReportMetric(row.Values[0], "energy-gain-x")
				}
			}
		}
	}
}

// BenchmarkFigure5 regenerates the SpMSpV synthetic-dataset comparison.
func BenchmarkFigure5(b *testing.B) {
	run(b, "fig5", map[string]string{
		"pp-gflops-sa": "gm-pp-gflops-x",
		"pp-eff-sa":    "gm-pp-eff-x",
		"ee-eff-sa":    "gm-ee-eff-x",
	})
}

// BenchmarkFigure6 regenerates the SpMSpM real-world comparison (paper:
// Max Cfg performance at 5.3x better efficiency; 1.8x over Baseline in
// Energy-Efficient mode).
func BenchmarkFigure6(b *testing.B) {
	run(b, "fig6", map[string]string{
		"pp-gflops-sa": "gm-pp-gflops-x",
		"pp-eff-sa":    "gm-pp-eff-x",
		"ee-eff-sa":    "gm-ee-eff-x",
	})
}

// BenchmarkFigure7 regenerates the SpMSpV real-world comparison for both
// L1 modes in Power-Performance mode.
func BenchmarkFigure7(b *testing.B) {
	run(b, "fig7", map[string]string{
		"cache-gflops-sa": "gm-cache-gflops-x",
		"spm-gflops-sa":   "gm-spm-gflops-x",
	})
}

// BenchmarkTable6 regenerates the graph-algorithm TEPS/W table (paper GM:
// BFS 1.31x, SSSP 1.29x over Baseline).
func BenchmarkTable6(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("tab6")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				switch row.Label {
				case "bfs/GM":
					b.ReportMetric(row.Values[1], "gm-bfs-x")
				case "sssp/GM":
					b.ReportMetric(row.Values[1], "gm-sssp-x")
				}
			}
		}
	}
}

// BenchmarkFigure8 regenerates the upper-bound study (paper: SparseAdapt
// within 13% of Oracle performance, 5% of its efficiency).
func BenchmarkFigure8(b *testing.B) {
	run(b, "fig8", map[string]string{
		"pp-eff-oracle": "gm-pp-eff-oracle-x",
		"pp-eff-sa":     "gm-pp-eff-sa-x",
		"ee-eff-oracle": "gm-ee-eff-oracle-x",
		"ee-eff-sa":     "gm-ee-eff-sa-x",
	})
}

// BenchmarkFigure9 regenerates the model-complexity sweep.
func BenchmarkFigure9(b *testing.B) {
	run(b, "fig9", nil)
}

// BenchmarkFigure10 regenerates the feature-importance analysis.
func BenchmarkFigure10(b *testing.B) {
	run(b, "fig10", nil)
}

// BenchmarkFigure11Policies regenerates the cost-aware policy sweep.
func BenchmarkFigure11Policies(b *testing.B) {
	run(b, "fig11L", nil)
}

// BenchmarkFigure11Bandwidth regenerates the memory-bandwidth sweep
// (paper: >3x gains when memory-bound).
func BenchmarkFigure11Bandwidth(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("fig11R")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rep.Rows) > 0 {
			b.ReportMetric(rep.Rows[0].Values[0], "lowbw-gain-x")
			b.ReportMetric(rep.Rows[len(rep.Rows)-1].Values[0], "highbw-gain-x")
		}
	}
}

// BenchmarkFigure12 regenerates the system-size scaling study (paper:
// 1.7-2.0x mean gains without retraining).
func BenchmarkFigure12(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("fig12")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				b.ReportMetric(row.Values[len(row.Values)-1], row.Label+"-gm-x")
			}
		}
	}
}

// BenchmarkProfileAdapt regenerates the Section 6.4 comparison (paper: up
// to 2.9x efficiency over the naive scheme).
func BenchmarkProfileAdapt(b *testing.B) {
	run(b, "sec64", map[string]string{
		"pp-eff-vs-naive": "gm-pp-eff-vs-naive-x",
		"ee-eff-vs-naive": "gm-ee-eff-vs-naive-x",
		"ee-eff-vs-ideal": "gm-ee-eff-vs-ideal-x",
	})
}

// BenchmarkDiscussion7 regenerates the regular-kernel ablation of the
// Discussion (paper: <5% Oracle headroom over Ideal Static for GeMM/Conv,
// i.e. dynamic control is overkill for regular workloads).
func BenchmarkDiscussion7(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("disc7")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				// Column 5 is the Power-Performance-mode Oracle/Ideal-Static
				// headroom, the discriminating quantity of the claim.
				b.ReportMetric(row.Values[5], row.Label+"-headroom-x")
			}
		}
	}
}

// BenchmarkAlgoSelection regenerates the host dispatch crossover between
// the outer- and inner-product SpMSpM formulations (Section 5.4).
func BenchmarkAlgoSelection(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("algo")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				b.ReportMetric(row.Values[2], row.Label+"-inner/outer-x")
			}
		}
	}
}

// BenchmarkPhaseDetection regenerates the motivation-section analysis:
// SimPoint-style detectors find explicit phases but miss the implicit
// adaptation opportunities the Oracle exploits.
func BenchmarkPhaseDetection(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("phasedet")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				b.ReportMetric(row.Values[2], row.Label+"-recall")
				b.ReportMetric(row.Values[5], row.Label+"-missed")
			}
		}
	}
}

// BenchmarkModelChoice regenerates the Section 4.3 model-family study
// (paper: trees ≈ forests, regressions clearly worse).
func BenchmarkModelChoice(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("models")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the mean tree-vs-linear accuracy gap across parameters.
			tree, lin := 0.0, 0.0
			for _, row := range rep.Rows {
				tree += row.Values[0]
				lin += row.Values[2]
			}
			n := float64(len(rep.Rows))
			b.ReportMetric(tree/n, "tree-cv-acc")
			b.ReportMetric(lin/n, "linear-cv-acc")
		}
	}
}

// --- engine benchmarks -------------------------------------------------
//
// The benchmarks below measure the parallel execution engine itself on a
// fixed oracle-recording batch: the same simulation grid the upper-bound
// study replays, which is the dominant cost of every experiment. Compare
// BenchmarkEngineOracleRecord/workers=1 against workers=4 for the
// parallel speedup, and EngineCacheCold against EngineCacheWarm for the
// content-addressed cache win.

var benchWorkload struct {
	once sync.Once
	chip power.Chip
	w    kernels.Workload
	cfgs []config.Config
}

func engineBenchSetup(b *testing.B) (power.Chip, kernels.Workload, []config.Config) {
	b.Helper()
	benchWorkload.once.Do(func() {
		benchWorkload.chip = power.Chip{Tiles: 2, GPEsPerTile: 8}
		rng := rand.New(rand.NewSource(1))
		am := matrix.Uniform(rng, 128, 128, 1600)
		_, w, err := kernels.SpMSpM(am.ToCSC(), am.ToCSR(),
			benchWorkload.chip.NGPE(), benchWorkload.chip.Tiles)
		if err != nil {
			b.Fatal(err)
		}
		benchWorkload.w = w
		benchWorkload.cfgs = oracle.SampleConfigs(rng, 24, config.CacheMode)
	})
	return benchWorkload.chip, benchWorkload.w, benchWorkload.cfgs
}

// BenchmarkEngineOracleRecord records the oracle grid at 1, 2, 4 and 8
// workers without a cache, exposing the raw pool speedup.
func BenchmarkEngineOracleRecord(b *testing.B) {
	chip, w, cfgs := engineBenchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Options{Workers: workers})
				if _, err := oracle.RecordSourceEngine(context.Background(), eng, nil,
					chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCacheCold records against a fresh cache every iteration:
// every row is a miss and must be simulated.
func BenchmarkEngineCacheCold(b *testing.B) {
	chip, w, cfgs := engineBenchSetup(b)
	for i := 0; i < b.N; i++ {
		cache, err := engine.NewCache(4096, "")
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(engine.Options{Workers: 4, Cache: cache})
		if _, err := oracle.RecordSourceEngine(context.Background(), eng, nil,
			chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheWarm records against a pre-populated cache: every
// row should be served content-addressed with near-zero recompute.
func BenchmarkEngineCacheWarm(b *testing.B) {
	chip, w, cfgs := engineBenchSetup(b)
	cache, err := engine.NewCache(4096, "")
	if err != nil {
		b.Fatal(err)
	}
	warm := engine.New(engine.Options{Workers: 4, Cache: cache})
	if _, err := oracle.RecordSourceEngine(context.Background(), warm, nil,
		chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{Workers: 4, Cache: cache})
		if _, err := oracle.RecordSourceEngine(context.Background(), eng, nil,
			chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 0 {
		hits, misses, _ := cache.Counts()
		b.ReportMetric(float64(hits)/float64(hits+misses)*100, "hit-%")
	}
}

// BenchmarkHistoryExtension regenerates the Section 7 history-window
// ablation (H = 1 is the published design).
func BenchmarkHistoryExtension(b *testing.B) {
	sc := experiments.TestScale()
	e, _ := experiments.Get("hist")
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rep.Rows {
				b.ReportMetric(row.Values[0], row.Label+"-ee-eff-x")
			}
		}
	}
}
