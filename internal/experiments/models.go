package experiments

import (
	"context"

	"sparseadapt/internal/config"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/trainer"
)

func init() {
	register("models", "Choice of predictive model (§4.3): per-parameter CV accuracy of four model families", ModelChoice)
}

// ModelChoice reproduces the model-selection study of Section 4.3: the
// paper compared decision trees, random forests, linear regression and
// logistic regression, found trees and forests similarly accurate with the
// regressions clearly worse, and chose pruned decision trees for their
// accuracy/overhead/explainability balance. The report gives 3-fold
// cross-validated accuracy per configuration parameter and family, plus a
// majority-class floor.
func ModelChoice(sc Scale) (*Report, error) {
	rep := &Report{ID: "models", Title: "Per-parameter 3-fold CV accuracy by model family",
		Columns: []string{"tree", "forest", "linear", "logistic", "majority"}}

	ds, err := trainer.GenerateEngine(context.Background(), sc.Eng, modelSweep(sc, "spmspv", config.CacheMode), power.EnergyEfficient, 1)
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(ds.Examples))
	for i, e := range ds.Examples {
		x[i] = e.X
	}

	for _, p := range config.RuntimeParams {
		y := make([]int, len(ds.Examples))
		hist := map[int]int{}
		for i, e := range ds.Examples {
			y[i] = e.Y[p]
			hist[y[i]]++
		}
		maj := 0
		for _, n := range hist {
			if n > maj {
				maj = n
			}
		}
		majority := float64(maj) / float64(len(y))

		accs := make([]float64, 4)
		folds := ml.KFold(len(x), 3, sc.Seed)
		for _, fold := range folds {
			tx, ty := gatherXY(x, y, fold[0])
			vx, vy := gatherXY(x, y, fold[1])

			if t, err := ml.TrainTree(tx, ty, ml.DefaultTreeParams()); err == nil {
				accs[0] += ml.Accuracy(t, vx, vy)
			}
			if f, err := ml.TrainForest(tx, ty, ml.ForestParams{
				Trees: 10, Tree: ml.DefaultTreeParams(), Seed: sc.Seed}); err == nil {
				accs[1] += ml.Accuracy(f, vx, vy)
			}
			if l, err := ml.TrainLinear(tx, ty); err == nil {
				accs[2] += ml.Accuracy(l, vx, vy)
			}
			if lg, err := ml.TrainLogistic(tx, ty, ml.LogisticParams{Epochs: 40, LR: 0.2}); err == nil {
				accs[3] += ml.Accuracy(lg, vx, vy)
			}
		}
		n := float64(len(folds))
		rep.Add(p.String(), accs[0]/n, accs[1]/n, accs[2]/n, accs[3]/n, majority)
	}
	rep.Note("paper: trees ≈ forests, regressions clearly worse; pruned trees chosen (§4.3)")
	return rep, nil
}

func gatherXY(x [][]float64, y []int, idx []int) ([][]float64, []int) {
	gx := make([][]float64, len(idx))
	gy := make([]int, len(idx))
	for i, j := range idx {
		gx[i] = x[j]
		gy[i] = y[j]
	}
	return gx, gy
}
