package experiments

import (
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/graph"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

func init() {
	register("fig1", "Motivation: dynamic reconfiguration on OP-SpMSpM with a dense-strip matrix", Figure1)
	register("fig5", "SpMSpV on synthetic matrices vs standard configs (L1 cache)", Figure5)
	register("fig6", "SpMSpM on real-world matrices vs standard configs (L1 cache)", Figure6)
	register("fig7", "SpMSpV on real-world matrices, Power-Performance mode, L1 cache & SPM", Figure7)
	register("tab6", "Graph algorithms (BFS, SSSP): TEPS/W gains, Energy-Efficient mode", Table6)
}

// standards holds the static comparison runs for one workload.
type standards struct {
	base, best, max power.Metrics
}

func runStandards(sc Scale, w kernels.Workload, l1Type int) standards {
	b, ba, mx := staticFor(l1Type)
	return standards{
		base: core.RunStatic(sc.Chip, sc.BW, b, w, sc.Epoch).Total,
		best: core.RunStatic(sc.Chip, sc.BW, ba, w, sc.Epoch).Total,
		max:  core.RunStatic(sc.Chip, sc.BW, mx, w, sc.Epoch).Total,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Figure1 reproduces the motivating timeline: OP-SpMSpM on a 128×128, 20%
// dense matrix with dense columns separating sparse strips, dynamic
// adaptation vs the best static configuration. The report carries one row
// per epoch (efficiency, clock, L2 capacity, bandwidth utilization) plus
// headline speedup and energy-gain rows.
func Figure1(sc Scale) (*Report, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	dim := int(128 * maxF(sc.Matrix*8, 1)) // fig-1 matrix is small already
	am := matrix.DenseStrips(rng, dim, 0.2, 8)
	a := am.ToCSC()
	at := am.ToCSR().Transpose()
	_, w, err := kernels.SpMSpM(a, at, sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		return nil, err
	}

	static := core.RunStatic(sc.Chip, sc.BW, config.BestAvgCache, w, sc.Epoch)
	dyn, err := runSparseAdapt(sc, w, "spmspm", config.CacheMode, power.PowerPerformance)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fig1", Title: "Dynamic vs best-static on dense-strip OP-SpMSpM (Power-Performance mode)",
		Columns: []string{"gflopsw-dyn", "gflopsw-static", "clock-mhz", "l2-kb", "bw-util"}}
	n := len(dyn.Epochs)
	if len(static.Epochs) < n {
		n = len(static.Epochs)
	}
	for i := 0; i < n; i++ {
		d, s := dyn.Epochs[i], static.Epochs[i]
		rep.Add(d.Phase,
			d.Metrics.GFLOPSPerW(), s.Metrics.GFLOPSPerW(),
			d.Config.ClockMHz(), float64(d.Config.L2CapKB()),
			d.Counters.MemReadUtil+d.Counters.MemWriteUtil)
	}
	speedup := ratio(static.Total.TimeSec, dyn.Total.TimeSec)
	egain := ratio(static.Total.EnergyJ, dyn.Total.EnergyJ)
	rep.Add("speedup-vs-static", speedup)
	rep.Add("energy-gain-vs-static", egain)
	rep.Note("paper reports 22.6%% faster and 1.5x less energy; reconfigurations: %d", dyn.Reconfig)
	return rep, nil
}

// Figure5 compares SpMSpV against Baseline / Best Avg / Max Cfg on the
// synthetic suite (U1–U3, P1–P3) in both optimization modes, L1 as cache.
// Values are gains over Baseline; the pp-gflops columns correspond to the
// left panel, pp-eff to the middle, ee-eff to the right.
func Figure5(sc Scale) (*Report, error) {
	return realWorldCompare(sc, "fig5", []string{"U1", "U2", "U3", "P1", "P2", "P3"},
		"spmspv", "SpMSpV, synthetic dataset, gains over Baseline", buildSpMSpV)
}

// realWorldCompare runs one kernel over a matrix list with the standard
// comparison set in both modes (the Figure 5 and 6 layout).
func realWorldCompare(sc Scale, id string, ids []string, kernel string, title string,
	build func(Scale, string) (kernels.Workload, error)) (*Report, error) {
	rep := &Report{ID: id, Title: title,
		Columns: []string{
			"pp-gflops-best", "pp-gflops-max", "pp-gflops-sa",
			"pp-eff-best", "pp-eff-max", "pp-eff-sa",
			"ee-eff-best", "ee-eff-max", "ee-eff-sa",
		}}
	for _, mid := range ids {
		w, err := build(sc, mid)
		if err != nil {
			return nil, err
		}
		std := runStandards(sc, w, config.CacheMode)
		pp, err := runSparseAdapt(sc, w, kernel, config.CacheMode, power.PowerPerformance)
		if err != nil {
			return nil, err
		}
		ee, err := runSparseAdapt(sc, w, kernel, config.CacheMode, power.EnergyEfficient)
		if err != nil {
			return nil, err
		}
		vals := []float64{
			ratio(std.best.GFLOPS(), std.base.GFLOPS()),
			ratio(std.max.GFLOPS(), std.base.GFLOPS()),
			ratio(pp.Total.GFLOPS(), std.base.GFLOPS()),
			ratio(std.best.GFLOPSPerW(), std.base.GFLOPSPerW()),
			ratio(std.max.GFLOPSPerW(), std.base.GFLOPSPerW()),
			ratio(pp.Total.GFLOPSPerW(), std.base.GFLOPSPerW()),
			ratio(std.best.GFLOPSPerW(), std.base.GFLOPSPerW()),
			ratio(std.max.GFLOPSPerW(), std.base.GFLOPSPerW()),
			ratio(ee.Total.GFLOPSPerW(), std.base.GFLOPSPerW()),
		}
		rep.Add(mid, vals...)
	}
	addGM(rep)
	return rep, nil
}

// Figure6 is the SpMSpM real-world comparison (R01–R08, C = A·Aᵀ).
func Figure6(sc Scale) (*Report, error) {
	return realWorldCompare(sc, "fig6",
		[]string{"R01", "R02", "R03", "R04", "R05", "R06", "R07", "R08"},
		"spmspm", "SpMSpM, real-world dataset, gains over Baseline", buildSpMSpM)
}

// Figure7 is the SpMSpV real-world comparison in Power-Performance mode
// with the L1 configured as cache and as scratchpad.
func Figure7(sc Scale) (*Report, error) {
	rep := &Report{ID: "fig7", Title: "SpMSpV, real-world dataset, Power-Performance mode, gains over Baseline",
		Columns: []string{
			"cache-gflops-best", "cache-gflops-max", "cache-gflops-sa", "cache-eff-sa",
			"spm-gflops-best", "spm-gflops-max", "spm-gflops-sa", "spm-eff-sa",
		}}
	ids := []string{"R09", "R10", "R11", "R12", "R13", "R14", "R15", "R16"}
	for _, mid := range ids {
		w, err := buildSpMSpV(sc, mid)
		if err != nil {
			return nil, err
		}
		// Gains are relative to the global Baseline config of Table 4.
		base := core.RunStatic(sc.Chip, sc.BW, config.Baseline, w, sc.Epoch).Total
		var vals []float64
		for _, l1 := range []int{config.CacheMode, config.SPMMode} {
			_, bestCfg, maxCfg := staticFor(l1)
			best := core.RunStatic(sc.Chip, sc.BW, bestCfg, w, sc.Epoch).Total
			max := core.RunStatic(sc.Chip, sc.BW, maxCfg, w, sc.Epoch).Total
			sa, err := runSparseAdapt(sc, w, "spmspv", l1, power.PowerPerformance)
			if err != nil {
				return nil, err
			}
			vals = append(vals,
				ratio(best.GFLOPS(), base.GFLOPS()),
				ratio(max.GFLOPS(), base.GFLOPS()),
				ratio(sa.Total.GFLOPS(), base.GFLOPS()),
				ratio(sa.Total.GFLOPSPerW(), base.GFLOPSPerW()),
			)
		}
		rep.Add(mid, vals...)
	}
	addGM(rep)
	return rep, nil
}

// Table6 reproduces the graph-algorithm table: TEPS/W gains over Baseline
// for Best Avg and SparseAdapt on BFS and SSSP, Energy-Efficient mode,
// L1 as cache.
func Table6(sc Scale) (*Report, error) {
	rep := &Report{ID: "tab6", Title: "BFS and SSSP TEPS/W gains over Baseline (Energy-Efficient mode)",
		Columns: []string{"bestavg", "sparseadapt"}}
	ids := []string{"R09", "R10", "R11", "R12", "R13", "R14", "R15", "R16"}
	ens, err := Model(sc, "spmspv", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		return nil, err
	}
	for _, algo := range []string{"bfs", "sssp"} {
		var gBest, gSA []float64
		for _, mid := range ids {
			e, err := matrix.Entry(mid)
			if err != nil {
				return nil, err
			}
			g := e.Generate(sc.Matrix, sc.Seed).ToCSC()
			src := hubVertex(g)
			var res graph.Result
			var w kernels.Workload
			if algo == "bfs" {
				res, w, err = graph.BFS(g, src, sc.Chip.NGPE(), sc.Chip.Tiles)
			} else {
				res, w, err = graph.SSSP(g, src, sc.Chip.NGPE(), sc.Chip.Tiles)
			}
			if err != nil {
				return nil, err
			}
			if res.Traversed == 0 {
				continue
			}
			base := core.RunStatic(sc.Chip, sc.BW, config.Baseline, w, sc.Epoch).Total
			best := core.RunStatic(sc.Chip, sc.BW, config.BestAvgCache, w, sc.Epoch).Total
			m := sim.New(sc.Chip, sc.BW, config.Baseline)
			sa := core.NewController(ens, ControlOptions("spmspv", "", core.DefaultTolerance, sc.Epoch)).Run(m, w)
			// TEPS/W = traversed / energy; traversed cancels in the gain.
			bestGain := ratio(base.EnergyJ, best.EnergyJ)
			saGain := ratio(base.EnergyJ, sa.Total.EnergyJ)
			rep.Add(algo+"/"+mid, bestGain, saGain)
			gBest = append(gBest, bestGain)
			gSA = append(gSA, saGain)
		}
		rep.Add(algo+"/GM", geomean(gBest), geomean(gSA))
	}
	return rep, nil
}

// hubVertex picks the highest out-degree vertex as traversal source so
// power-law graphs produce meaningful frontiers.
func hubVertex(g *matrix.CSC) int {
	best, bn := 0, -1
	for c := 0; c < g.Cols; c++ {
		if n := g.ColPtr[c+1] - g.ColPtr[c]; n > bn {
			best, bn = c, n
		}
	}
	return best
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
