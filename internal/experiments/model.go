package experiments

import (
	"context"
	"strconv"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

func init() {
	register("fig9", "Effect of decision-tree depth on SparseAdapt gains (SpMSpV, P1/P3)", Figure9)
	register("fig10", "Feature importance of counter groups per parameter model", Figure10)
}

// Figure9 sweeps the depth of the decision tree of each configuration
// parameter one at a time (using the originally trained trees for the
// rest) and reports Power-Performance-mode gains over Baseline for SpMSpV
// on matrices P1 and P3 with a 50%-dense vector.
func Figure9(sc Scale) (*Report, error) {
	depths := []int{2, 6, 10, 14, 18, 22, 26}
	if sc.Train < 0.3 {
		depths = []int{2, 8, 14}
	}
	rep := &Report{ID: "fig9", Title: "SparseAdapt gains vs per-parameter tree depth (Power-Performance mode)",
		Columns: []string{"p1-gflops", "p1-eff", "p3-gflops", "p3-eff"}}

	// Regenerate the training dataset once so trees can be re-fit per depth,
	// all from one presorted matrix.
	ds, err := trainer.GenerateEngine(context.Background(), sc.Eng, modelSweep(sc, "spmspv", config.CacheMode), power.PowerPerformance, 1)
	if err != nil {
		return nil, err
	}
	base, err := trainer.Train(ds, ml.DefaultTreeParams())
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(ds.Examples))
	for i, e := range ds.Examples {
		x[i] = e.X
	}
	ps, err := ml.Presort(x)
	if err != nil {
		return nil, err
	}

	type workloadRef struct {
		id   string
		w    kernels.Workload
		base power.Metrics
	}
	var refs []workloadRef
	for _, id := range []string{"P1", "P3"} {
		w, err := buildSpMSpV(sc, id)
		if err != nil {
			return nil, err
		}
		bm := core.RunStatic(sc.Chip, sc.BW, config.Baseline, w, sc.Epoch).Total
		refs = append(refs, workloadRef{id: id, w: w, base: bm})
	}

	for _, p := range config.RuntimeParams {
		y := make([]int, len(ds.Examples))
		for i, e := range ds.Examples {
			y[i] = e.Y[p]
		}
		for _, d := range depths {
			t, err := ps.TrainTree(y, ml.TreeParams{Criterion: ml.Gini, MaxDepth: d, MinSamplesLeaf: 5})
			if err != nil {
				return nil, err
			}
			ens := &core.Ensemble{Trees: map[config.Param]*ml.Tree{}, Mode: power.PowerPerformance}
			for _, q := range config.RuntimeParams {
				ens.Trees[q] = base.Trees[q]
			}
			ens.Trees[p] = t

			var vals []float64
			for _, ref := range refs {
				m := sim.New(sc.Chip, sc.BW, config.Baseline)
				ctl := core.NewController(ens, ControlOptions("spmspv", "", core.DefaultTolerance, sc.Epoch))
				res := ctl.Run(m, ref.w)
				vals = append(vals,
					ratio(res.Total.GFLOPS(), ref.base.GFLOPS()),
					ratio(res.Total.GFLOPSPerW(), ref.base.GFLOPSPerW()))
			}
			rep.Add(p.String()+"/d"+strconv.Itoa(d), vals...)
		}
	}
	rep.Note("paper: GFLOPS is more sensitive to model complexity than GFLOPS/W in this mode")
	return rep, nil
}

// Figure10 reports the Gini importance of each feature group for every
// per-parameter model in both optimization modes.
func Figure10(sc Scale) (*Report, error) {
	groups := []string{"Config", "L1 R-DCache", "L2 R-DCache", "R-XBar", "GPE", "LCP", "Clock", "Mem Ctrl"}
	rep := &Report{ID: "fig10", Title: "Feature-group Gini importance per trained parameter model",
		Columns: groups}
	for _, mode := range []power.Mode{power.PowerPerformance, power.EnergyEfficient} {
		ens, err := Model(sc, "spmspv", config.CacheMode, mode)
		if err != nil {
			return nil, err
		}
		prefix := "pp/"
		if mode == power.EnergyEfficient {
			prefix = "ee/"
		}
		for _, p := range config.RuntimeParams {
			gi := ens.GroupImportance(p)
			vals := make([]float64, len(groups))
			for i, g := range groups {
				vals[i] = gi[g]
			}
			rep.Add(prefix+p.String(), vals...)
		}
	}
	return rep, nil
}
