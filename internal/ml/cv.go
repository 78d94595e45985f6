package ml

import (
	"fmt"
	"math/rand"
)

// KFold yields k (train, test) index splits after a deterministic shuffle,
// mirroring the paper's 3-fold cross-validation (Section 5.1).
func KFold(n, k int, seed int64) [][2][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([][2][]int, 0, k)
	for f := 0; f < k; f++ {
		lo, hi := f*n/k, (f+1)*n/k
		test := append([]int{}, idx[lo:hi]...)
		train := append(append([]int{}, idx[:lo]...), idx[hi:]...)
		out = append(out, [2][]int{train, test})
	}
	return out
}

func gather(x [][]float64, y []int, idx []int) ([][]float64, []int) {
	gx := make([][]float64, len(idx))
	gy := make([]int, len(idx))
	for i, j := range idx {
		gx[i] = x[j]
		gy[i] = y[j]
	}
	return gx, gy
}

// CrossValidateTree returns the mean k-fold accuracy of tree parameters p.
func CrossValidateTree(x [][]float64, y []int, p TreeParams, k int, seed int64) (float64, error) {
	folds, err := presortFolds(x, y, k, seed)
	if err != nil {
		return 0, err
	}
	return crossValidate(folds, p)
}

// cvFold is one cross-validation split, its training rows presorted so
// every parameter setting a grid search tries is fitted without a re-sort.
type cvFold struct {
	train *Presorted
	ty    []int
	vx    [][]float64
	vy    []int
}

func presortFolds(x [][]float64, y []int, k int, seed int64) ([]cvFold, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	var folds []cvFold
	for _, fold := range KFold(len(x), k, seed) {
		tx, ty := gather(x, y, fold[0])
		vx, vy := gather(x, y, fold[1])
		ps, err := Presort(tx)
		if err != nil {
			return nil, err
		}
		folds = append(folds, cvFold{train: ps, ty: ty, vx: vx, vy: vy})
	}
	return folds, nil
}

func crossValidate(folds []cvFold, p TreeParams) (float64, error) {
	acc := 0.0
	for _, f := range folds {
		t, err := f.train.TrainTree(f.ty, p)
		if err != nil {
			return 0, err
		}
		acc += Accuracy(t, f.vx, f.vy)
	}
	return acc / float64(len(folds)), nil
}

// GridSearchTree sweeps criterion, max_depth and min_samples_leaf with
// k-fold cross-validation (the paper's hyperparameter methodology,
// Section 5.1) and returns the best parameters with their CV accuracy.
func GridSearchTree(x [][]float64, y []int, depths, minLeafs []int, k int, seed int64) (TreeParams, float64, error) {
	if len(depths) == 0 {
		depths = []int{4, 8, 12, 16}
	}
	if len(minLeafs) == 0 {
		minLeafs = []int{1, 5, 20}
	}
	best := TreeParams{}
	bestAcc := -1.0
	folds, err := presortFolds(x, y, k, seed)
	if err != nil {
		return best, 0, err
	}
	for _, crit := range []Criterion{Gini, Entropy} {
		for _, d := range depths {
			for _, ml := range minLeafs {
				p := TreeParams{Criterion: crit, MaxDepth: d, MinSamplesLeaf: ml}
				acc, err := crossValidate(folds, p)
				if err != nil {
					return best, 0, err
				}
				if acc > bestAcc {
					best, bestAcc = p, acc
				}
			}
		}
	}
	return best, bestAcc, nil
}
