package experiments

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

func init() {
	register("fig11L", "Cost-aware policy sweep (SpMSpV on P3 and R12, Power-Performance mode)", Figure11Policies)
	register("fig11R", "External memory bandwidth sweep (SpMSpV, Energy-Efficient mode)", Figure11Bandwidth)
	register("fig12", "System-size scaling (SpMSpM R01-R08, Energy-Efficient mode)", Figure12)
}

// Figure11Policies evaluates the conservative, aggressive and hybrid
// (tolerance sweep) reconfiguration policies of Section 4.4 on SpMSpV.
func Figure11Policies(sc Scale) (*Report, error) {
	rep := &Report{ID: "fig11L", Title: "Policy sweep, gains over Baseline (Power-Performance mode)",
		Columns: []string{"p3-gflops", "p3-eff", "r12-gflops", "r12-eff"}}
	ens, err := Model(sc, "spmspv", config.CacheMode, power.PowerPerformance)
	if err != nil {
		return nil, err
	}
	type scheme struct {
		label string
		opts  core.Options
	}
	schemes := []scheme{
		{"conservative", core.Options{Policy: core.Conservative, EpochScale: sc.Epoch}},
		{"aggressive", core.Options{Policy: core.Aggressive, EpochScale: sc.Epoch}},
	}
	for _, tol := range []float64{0.1, 0.2, 0.4, 0.8} {
		schemes = append(schemes, scheme{
			fmt.Sprintf("hybrid-%d%%", int(tol*100)),
			core.Options{Policy: core.Hybrid, Tolerance: tol, EpochScale: sc.Epoch},
		})
	}
	type ref struct {
		w    kernels.Workload
		base power.Metrics
	}
	var refs []ref
	for _, id := range []string{"P3", "R12"} {
		w, err := buildSpMSpV(sc, id)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref{w: w, base: core.RunStatic(sc.Chip, sc.BW, config.Baseline, w, sc.Epoch).Total})
	}
	for _, s := range schemes {
		var vals []float64
		for _, r := range refs {
			m := sim.New(sc.Chip, sc.BW, config.Baseline)
			res := core.NewController(ens, s.opts).Run(m, r.w)
			vals = append(vals,
				ratio(res.Total.GFLOPS(), r.base.GFLOPS()),
				ratio(res.Total.GFLOPSPerW(), r.base.GFLOPSPerW()))
		}
		rep.Add(s.label, vals...)
	}
	rep.Note("paper: ideal hybrid tolerance lies between 10-40%% at this epoch size")
	return rep, nil
}

// Figure11Bandwidth sweeps the external memory bandwidth and reports
// Energy-Efficient-mode gains over Baseline and Best Avg for SpMSpV on P3,
// reusing the model trained at the default bandwidth (the paper deploys
// without retraining).
func Figure11Bandwidth(sc Scale) (*Report, error) {
	rep := &Report{ID: "fig11R", Title: "Bandwidth sweep, SpMSpV on P3, Energy-Efficient mode",
		Columns: []string{"vs-baseline", "vs-bestavg"}}
	ens, err := Model(sc, "spmspv", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		return nil, err
	}
	w, err := buildSpMSpV(sc, "P3")
	if err != nil {
		return nil, err
	}
	for _, bwGB := range []float64{0.01, 0.1, 1, 10, 100} {
		bw := bwGB * 1e9
		base := core.RunStatic(sc.Chip, bw, config.Baseline, w, sc.Epoch).Total
		best := core.RunStatic(sc.Chip, bw, config.BestAvgCache, w, sc.Epoch).Total
		m := sim.New(sc.Chip, bw, config.Baseline)
		res := core.NewController(ens, ControlOptions("spmspv", "", core.DefaultTolerance, sc.Epoch)).Run(m, w)
		rep.Add(fmt.Sprintf("%gGB/s", bwGB),
			ratio(res.Total.GFLOPSPerW(), base.GFLOPSPerW()),
			ratio(res.Total.GFLOPSPerW(), best.GFLOPSPerW()))
	}
	rep.Note("paper: >3x gains in the memory-bound regime, ~1.1x over Best Avg when compute-bound")
	return rep, nil
}

// Figure12 scales the machine (tiles × GPEs/tile) while keeping the model
// trained on the 2×8 system, reporting Energy-Efficient GFLOPS/W gains over
// Baseline on SpMSpM R01–R08 at a fixed 1 GB/s.
func Figure12(sc Scale) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "System-size scaling, SpMSpM GFLOPS/W gains over Baseline (Energy-Efficient mode)",
		Columns: []string{"R01", "R02", "R03", "R04", "R05", "R06", "R07", "R08", "GM"}}
	// Model trained once on the base 2×8 chip.
	ens, err := Model(sc, "spmspm", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		return nil, err
	}
	systems := []power.Chip{
		{Tiles: 1, GPEsPerTile: 8},
		{Tiles: 2, GPEsPerTile: 8},
		{Tiles: 2, GPEsPerTile: 16},
		{Tiles: 4, GPEsPerTile: 16},
	}
	ids := []string{"R01", "R02", "R03", "R04", "R05", "R06", "R07", "R08"}
	for _, chip := range systems {
		scSys := sc
		scSys.Chip = chip
		var vals []float64
		for _, mid := range ids {
			w, err := buildSpMSpM(scSys, mid)
			if err != nil {
				return nil, err
			}
			base := core.RunStatic(chip, sc.BW, config.Baseline, w, sc.Epoch).Total
			m := sim.New(chip, sc.BW, config.Baseline)
			res := core.NewController(ens, ControlOptions("spmspm", "", core.DefaultTolerance, sc.Epoch)).Run(m, w)
			vals = append(vals, ratio(res.Total.GFLOPSPerW(), base.GFLOPSPerW()))
		}
		vals = append(vals, geomean(vals))
		rep.Add(fmt.Sprintf("%dx%d", chip.Tiles, chip.GPEsPerTile), vals...)
	}
	rep.Note("paper: 1.7-2.0x mean gains across system sizes without retraining")
	return rep, nil
}
