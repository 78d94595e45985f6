package experiments

import (
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

func init() {
	register("disc7", "Discussion §7: regular kernels (GeMM, Conv) — Ideal Static vs Oracle gap", Discussion7)
	register("hist", "Extension §7: history-based controller (telemetry window ablation)", HistoryAblation)
}

// Discussion7 reproduces the paper's offline observation that for regular
// kernels (GeMM and Conv) the gap between Ideal Static and the Oracle is
// small (< 5%), i.e. dynamic control is overkill for regular workloads,
// while the sparse kernels leave a much larger dynamic-adaptation headroom.
func Discussion7(sc Scale) (*Report, error) {
	rep := &Report{ID: "disc7", Title: "Oracle headroom over Ideal Static per kernel",
		Columns: []string{"ee-static", "ee-oracle", "ee-headroom", "pp-static", "pp-oracle", "pp-headroom"}}

	rng := rand.New(rand.NewSource(sc.Seed))
	dim := int(256 * maxF(sc.Matrix*4, 0.25))
	if dim < 24 {
		dim = 24
	}

	// Regular workloads.
	a := randDense(rng, dim/4, dim/4)
	b := randDense(rng, dim/4, dim/4)
	_, gemm, err := kernels.GeMM(a, b, sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		return nil, err
	}
	in := randDense(rng, dim/2, dim/2)
	k3 := randDense(rng, 3, 3)
	_, conv, err := kernels.Conv2D(in, k3, sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		return nil, err
	}

	// Sparse counterparts: the dense-strip matrix of Figure 1 (alternating
	// implicit phases — the paper's showcase for dynamic headroom) and a
	// power-law SpMSpV.
	stripDim := int(128 * maxF(sc.Matrix*8, 1))
	am := matrix.DenseStrips(rng, stripDim, 0.2, 8)
	_, spmspm, err := kernels.SpMSpM(am.ToCSC(), am.ToCSR().Transpose(), sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		return nil, err
	}
	spmspm.Name = "spmspm/strips"
	spmspv, err := buildSpMSpV(sc, "P3")
	if err != nil {
		return nil, err
	}

	for _, wl := range []kernels.Workload{gemm, conv, spmspm, spmspv} {
		rec, err := recordFor(sc, wl, config.CacheMode, sc.Epoch)
		if err != nil {
			return nil, err
		}
		base := baselineOf(rec, config.CacheMode)
		_, stEE := rec.IdealStatic(power.EnergyEfficient)
		_, orEE := rec.Oracle(power.EnergyEfficient)
		_, stPP := rec.IdealStatic(power.PowerPerformance)
		_, orPP := rec.Oracle(power.PowerPerformance)
		eeS := ratio(stEE.GFLOPSPerW(), base.GFLOPSPerW())
		eeO := ratio(orEE.GFLOPSPerW(), base.GFLOPSPerW())
		ppS := ratio(stPP.Score(power.PowerPerformance), base.Score(power.PowerPerformance))
		ppO := ratio(orPP.Score(power.PowerPerformance), base.Score(power.PowerPerformance))
		rep.Add(wl.Name, eeS, eeO, ratio(eeO, eeS), ppS, ppO, ratio(ppO, ppS))
	}
	rep.Note("paper: <5%% Oracle headroom for GeMM/Conv, large headroom for sparse kernels")
	return rep, nil
}

// HistoryAblation evaluates the paper's proposed future-work extension
// (Section 7, "Bridging the Gap with Oracle"): feeding telemetry from the
// last H epochs to the model instead of one. It trains history-augmented
// ensembles for H ∈ {1, 2, 4} and reports gains over Baseline for SpMSpV
// on P3 in both modes.
func HistoryAblation(sc Scale) (*Report, error) {
	rep := &Report{ID: "hist", Title: "History window ablation, SpMSpV on P3, gains over Baseline",
		Columns: []string{"ee-eff", "ee-reconfigs", "pp-gflops", "pp-eff"}}
	w, err := buildSpMSpV(sc, "P3")
	if err != nil {
		return nil, err
	}
	baseRun := core.RunStatic(sc.Chip, sc.BW, config.Baseline, w, sc.Epoch).Total

	for _, h := range []int{1, 2, 4} {
		eeEns, err := HistoryModel(sc, "spmspv", config.CacheMode, power.EnergyEfficient, h)
		if err != nil {
			return nil, err
		}
		ppEns, err := HistoryModel(sc, "spmspv", config.CacheMode, power.PowerPerformance, h)
		if err != nil {
			return nil, err
		}
		mEE := sim.New(sc.Chip, sc.BW, config.Baseline)
		ee := core.NewHistoryController(eeEns, ControlOptions("spmspv", "", core.DefaultTolerance, sc.Epoch), h).Run(mEE, w)
		mPP := sim.New(sc.Chip, sc.BW, config.Baseline)
		pp := core.NewHistoryController(ppEns, ControlOptions("spmspv", "", core.DefaultTolerance, sc.Epoch), h).Run(mPP, w)
		rep.Add(labelH(h),
			ratio(ee.Total.GFLOPSPerW(), baseRun.GFLOPSPerW()),
			float64(ee.Reconfig),
			ratio(pp.Total.GFLOPS(), baseRun.GFLOPS()),
			ratio(pp.Total.GFLOPSPerW(), baseRun.GFLOPSPerW()))
	}
	rep.Note("H=1 is the published SparseAdapt; larger windows are the paper's proposed extension")
	return rep, nil
}

func labelH(h int) string {
	return "H=" + string(rune('0'+h))
}

func randDense(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
		}
	}
	return m
}
