package experiments

import (
	"context"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
)

func init() {
	register("fig8", "Upper bounds: Ideal Static / Ideal Greedy / Oracle vs SparseAdapt (SpMSpM)", Figure8)
	register("sec64", "Comparison with ProfileAdapt (SpMSpV, L1 cache)", Section64)
}

// recordFor builds the S-sample recording for a workload. The sample is
// drawn serially (one RNG, before any parallel work) and the grid is filled
// through the scale's engine.
func recordFor(sc Scale, w kernels.Workload, l1Type int, epochScale float64) (*oracle.Recording, error) {
	rng := rand.New(rand.NewSource(sc.Seed + 7))
	cfgs := oracle.SampleConfigs(rng, sc.OracleSamples, l1Type)
	return oracle.RecordSourceEngine(context.Background(), sc.Eng, nil, sc.Chip, sc.BW, kernels.Fixed(w), epochScale, cfgs)
}

// baselineOf extracts the static-Baseline totals from a recording.
func baselineOf(rec *oracle.Recording, l1Type int) power.Metrics {
	want := config.Baseline
	if l1Type == config.SPMMode {
		want = config.BestAvgSPM
	}
	for s, c := range rec.Configs {
		if c.Index() == want.Index() {
			var tot power.Metrics
			for e := range rec.Epochs {
				tot.Add(rec.Grid[s][e].Metrics)
			}
			return tot
		}
	}
	return power.Metrics{}
}

// Figure8 compares SparseAdapt against the hypothetical Ideal Static,
// Ideal Greedy and Oracle schemes on SpMSpM over R01–R08, reporting gains
// over Baseline in both modes (performance for Power-Performance mode,
// efficiency for both).
func Figure8(sc Scale) (*Report, error) {
	rep := &Report{ID: "fig8", Title: "SpMSpM upper-bound study, gains over Baseline",
		Columns: []string{
			"pp-gflops-static", "pp-gflops-greedy", "pp-gflops-oracle", "pp-gflops-sa",
			"pp-eff-static", "pp-eff-greedy", "pp-eff-oracle", "pp-eff-sa",
			"ee-eff-static", "ee-eff-greedy", "ee-eff-oracle", "ee-eff-sa",
		}}
	ids := []string{"R01", "R02", "R03", "R04", "R05", "R06", "R07", "R08"}
	for _, mid := range ids {
		w, err := buildSpMSpM(sc, mid)
		if err != nil {
			return nil, err
		}
		rec, err := recordFor(sc, w, config.CacheMode, sc.Epoch)
		if err != nil {
			return nil, err
		}
		base := baselineOf(rec, config.CacheMode)

		_, stPP := rec.IdealStatic(power.PowerPerformance)
		_, grPP := rec.IdealGreedy(power.PowerPerformance)
		_, orPP := rec.Oracle(power.PowerPerformance)
		saPP, err := runSparseAdapt(sc, w, "spmspm", config.CacheMode, power.PowerPerformance)
		if err != nil {
			return nil, err
		}
		_, stEE := rec.IdealStatic(power.EnergyEfficient)
		_, grEE := rec.IdealGreedy(power.EnergyEfficient)
		_, orEE := rec.Oracle(power.EnergyEfficient)
		saEE, err := runSparseAdapt(sc, w, "spmspm", config.CacheMode, power.EnergyEfficient)
		if err != nil {
			return nil, err
		}
		vals := []float64{
			ratio(stPP.GFLOPS(), base.GFLOPS()),
			ratio(grPP.GFLOPS(), base.GFLOPS()),
			ratio(orPP.GFLOPS(), base.GFLOPS()),
			ratio(saPP.Total.GFLOPS(), base.GFLOPS()),
			ratio(stPP.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(grPP.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(orPP.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(saPP.Total.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(stEE.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(grEE.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(orEE.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(saEE.Total.GFLOPSPerW(), base.GFLOPSPerW()),
		}
		rep.Add(mid, vals...)
	}
	addGM(rep)
	rep.Note("paper: SparseAdapt within 13%% of Oracle performance and 5%% efficiency")
	return rep, nil
}

// Section64 compares SparseAdapt with ProfileAdapt (naïve: profiling switch
// at every epoch; ideal: only at configuration-change boundaries, assuming
// an external phase detector). ProfileAdapt operates at a larger epoch size
// (the paper sweeps and picks ~6k FLOPS vs SparseAdapt's 500), modelled by
// an 8× epoch scale when the trace is long enough.
func Section64(sc Scale) (*Report, error) {
	rep := &Report{ID: "sec64", Title: "SparseAdapt gains over ProfileAdapt (SpMSpV, real-world, L1 cache)",
		Columns: []string{
			"pp-gflops-vs-naive", "pp-eff-vs-naive", "pp-eff-vs-ideal",
			"ee-eff-vs-naive", "ee-eff-vs-ideal",
		}}
	ids := []string{"R09", "R10", "R11", "R12", "R13", "R14", "R15", "R16"}
	for _, mid := range ids {
		w, err := buildSpMSpV(sc, mid)
		if err != nil {
			return nil, err
		}
		paScale := sc.Epoch * 8
		if len(w.Epochs(paScale)) < 3 {
			paScale = sc.Epoch
		}
		recPA, err := recordFor(sc, w, config.CacheMode, paScale)
		if err != nil {
			return nil, err
		}
		naivePP := recPA.ProfileAdapt(power.PowerPerformance, true)
		idealPP := recPA.ProfileAdapt(power.PowerPerformance, false)
		naiveEE := recPA.ProfileAdapt(power.EnergyEfficient, true)
		idealEE := recPA.ProfileAdapt(power.EnergyEfficient, false)

		saPP, err := runSparseAdapt(sc, w, "spmspv", config.CacheMode, power.PowerPerformance)
		if err != nil {
			return nil, err
		}
		saEE, err := runSparseAdapt(sc, w, "spmspv", config.CacheMode, power.EnergyEfficient)
		if err != nil {
			return nil, err
		}
		vals := []float64{
			ratio(saPP.Total.GFLOPS(), naivePP.GFLOPS()),
			ratio(saPP.Total.GFLOPSPerW(), naivePP.GFLOPSPerW()),
			ratio(saPP.Total.GFLOPSPerW(), idealPP.GFLOPSPerW()),
			ratio(saEE.Total.GFLOPSPerW(), naiveEE.GFLOPSPerW()),
			ratio(saEE.Total.GFLOPSPerW(), idealEE.GFLOPSPerW()),
		}
		rep.Add(mid, vals...)
	}
	addGM(rep)
	rep.Note("paper: 2.8x GFLOPS / 2.0x GFLOPS/W over naive (PP), 2.9x GFLOPS/W (EE); 1.1-2.4x over ideal")
	return rep, nil
}
