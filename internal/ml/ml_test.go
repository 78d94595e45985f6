package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// synthAxis generates a dataset whose label is determined by thresholding
// feature 0 (with the remaining features as noise).
func synthAxis(rng *rand.Rand, n, nf, classes int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.Float64()
		}
		x[i] = row
		y[i] = int(row[0] * float64(classes))
		if y[i] >= classes {
			y[i] = classes - 1
		}
	}
	return x, y
}

// synthXOR generates a dataset no linear model can fit.
func synthXOR(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b, rng.Float64()}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return x, y
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := synthAxis(rng, 600, 4, 3)
	tr, err := TrainTree(x, y, DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synthAxis(rng, 300, 4, 3)
	if acc := Accuracy(tr, tx, ty); acc < 0.9 {
		t.Fatalf("tree accuracy %v on trivially separable data", acc)
	}
}

func TestTreeXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := synthXOR(rng, 800)
	tr, err := TrainTree(x, y, TreeParams{Criterion: Gini, MaxDepth: 10, MinSamplesLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synthXOR(rng, 300)
	if acc := Accuracy(tr, tx, ty); acc < 0.85 {
		t.Fatalf("tree accuracy %v on XOR", acc)
	}
	// The linear model must fail here (≈ chance).
	lin, err := TrainLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(lin, tx, ty); acc > 0.7 {
		t.Fatalf("linear model should not solve XOR, got %v", acc)
	}
}

func TestTreeDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := synthXOR(rng, 500)
	for _, d := range []int{1, 2, 4, 8} {
		tr, err := TrainTree(x, y, TreeParams{MaxDepth: d, MinSamplesLeaf: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Depth() > d {
			t.Fatalf("depth %d exceeds limit %d", tr.Depth(), d)
		}
	}
}

func TestTreePureLeafStops(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{1, 1, 1, 1}
	tr, err := TrainTree(x, y, TreeParams{MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() != 1 {
		t.Fatalf("pure dataset should yield a single leaf, got %d nodes", tr.NodeCount())
	}
	if tr.Predict([]float64{9}) != 1 {
		t.Fatal("leaf label wrong")
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := TrainTree(nil, nil, DefaultTreeParams()); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := TrainTree([][]float64{{1}}, []int{-1}, DefaultTreeParams()); err == nil {
		t.Fatal("negative label accepted")
	}
	// Malformed rows are refused with the row and feature named, rather
	// than panicking (ragged) or growing a tree that cannot be reloaded or
	// depends on sort order (non-finite values).
	for _, c := range []struct {
		x    [][]float64
		want string
	}{
		{[][]float64{{}, {}, {}}, "no features"},
		{[][]float64{{1, 2}, {3}, {0, 1}}, "row 1 has 1 features"},
		{[][]float64{{1, 2}, {3, math.Inf(-1)}, {0, 1}}, "row 1 feature 1"},
		{[][]float64{{1, 2}, {3, 4}, {math.Inf(1), 1}}, "row 2 feature 0"},
		{[][]float64{{1, 2}, {3, 4}, {0, math.NaN()}}, "row 2 feature 1"},
	} {
		_, err := TrainTree(c.x, []int{0, 1, 0}, DefaultTreeParams())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("TrainTree(%v) error %v, want one containing %q", c.x, err, c.want)
		}
	}
	ps, err := Presort([][]float64{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.TrainTree([]int{0}, DefaultTreeParams()); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := ps.TrainTree([]int{0, -1}, DefaultTreeParams()); err == nil {
		t.Fatal("negative label accepted by a presorted fit")
	}
}

func TestFeatureImportanceConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := synthAxis(rng, 800, 6, 4)
	tr, err := TrainTree(x, y, DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances must sum to 1, got %v", sum)
	}
	if imp[0] < 0.8 {
		t.Fatalf("feature 0 should dominate: %v", imp)
	}
}

func TestPruneReducesNodesKeepsAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := synthAxis(rng, 600, 4, 2)
	// Add label noise so the unpruned tree overfits.
	for i := range y {
		if rng.Float64() < 0.15 {
			y[i] = 1 - y[i]
		}
	}
	tr, err := TrainTree(x, y, TreeParams{MaxDepth: 0, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	vx, vy := synthAxis(rng, 400, 4, 2)
	before := Accuracy(tr, vx, vy)
	pruned := tr.Prune(vx, vy)
	if pruned == 0 {
		t.Fatal("overfit tree should prune")
	}
	if after := Accuracy(tr, vx, vy); after < before {
		t.Fatalf("pruning reduced validation accuracy: %v -> %v", before, after)
	}
}

func TestForestBeatsChance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := synthXOR(rng, 700)
	f, err := TrainForest(x, y, ForestParams{Trees: 15, Tree: TreeParams{MaxDepth: 8, MinSamplesLeaf: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees() != 15 {
		t.Fatalf("forest size %d", f.Trees())
	}
	tx, ty := synthXOR(rng, 300)
	if acc := Accuracy(f, tx, ty); acc < 0.75 {
		t.Fatalf("forest accuracy %v", acc)
	}
}

func TestLinearOnLinearData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := synthAxis(rng, 800, 3, 4)
	l, err := TrainLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synthAxis(rng, 300, 3, 4)
	if acc := Accuracy(l, tx, ty); acc < 0.7 {
		t.Fatalf("linear accuracy %v on linear data", acc)
	}
}

func TestLogisticBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := synthAxis(rng, 600, 3, 2)
	l, err := TrainLogistic(x, y, LogisticParams{Epochs: 60, LR: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := synthAxis(rng, 300, 3, 2)
	if acc := Accuracy(l, tx, ty); acc < 0.85 {
		t.Fatalf("logistic accuracy %v", acc)
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	w, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]-3) > 1e-9 {
		t.Fatalf("solve = %v, want [1 3]", w)
	}
	if _, err := solve([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Fatal("singular system accepted")
	}
}

func TestKFoldPartition(t *testing.T) {
	folds := KFold(10, 3, 1)
	if len(folds) != 3 {
		t.Fatalf("folds %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		if len(f[0])+len(f[1]) != 10 {
			t.Fatalf("fold sizes %d+%d", len(f[0]), len(f[1]))
		}
		for _, i := range f[1] {
			seen[i]++
		}
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d appears %d times across test folds", i, seen[i])
		}
	}
}

// Property: each fold's train and test sets are disjoint.
func TestQuickKFoldDisjoint(t *testing.T) {
	f := func(rawN, rawK uint8, seed int64) bool {
		n := 5 + int(rawN)%100
		k := 2 + int(rawK)%5
		for _, fold := range KFold(n, k, seed) {
			inTest := map[int]bool{}
			for _, i := range fold[1] {
				inTest[i] = true
			}
			for _, i := range fold[0] {
				if inTest[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValidateAndGridSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := synthAxis(rng, 400, 3, 2)
	acc, err := CrossValidateTree(x, y, DefaultTreeParams(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("CV accuracy %v", acc)
	}
	p, best, err := GridSearchTree(x, y, []int{2, 6}, []int{1, 10}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best < acc-0.1 {
		t.Fatalf("grid search found worse params (%v) than default (%v): %+v", best, acc, p)
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() == Entropy.String() {
		t.Fatal("criterion names must differ")
	}
}

// Property: tree prediction is piecewise constant — predicting a training
// point yields a label that appeared in training.
func TestQuickTreePredictsSeenLabels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		x := make([][]float64, n)
		y := make([]int, n)
		classes := 2 + rng.Intn(4)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64()}
			y[i] = rng.Intn(classes)
		}
		tr, err := TrainTree(x, y, TreeParams{MaxDepth: 5, MinSamplesLeaf: 2})
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			p := tr.Predict([]float64{rng.Float64(), rng.Float64()})
			if p < 0 || p >= classes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
