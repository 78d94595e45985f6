// Package ml is the machine-learning substrate of the reproduction,
// standing in for scikit-learn (Section 5.1): CART decision-tree
// classifiers with pruning and Gini feature importance, random forests,
// linear and logistic regression (the four model families the paper
// compared in Section 4.3), k-fold cross-validation and hyperparameter
// grid search.
package ml

import (
	"fmt"
	"math"
	"slices"
)

// Classifier predicts a class label from a feature vector.
type Classifier interface {
	Predict(x []float64) int
}

// Criterion selects the impurity function used to score splits.
type Criterion int

const (
	// Gini impurity (CART default).
	Gini Criterion = iota
	// Entropy (information gain).
	Entropy
)

// String names the criterion.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// TreeParams are the hyperparameters the paper sweeps with 3-fold
// cross-validation: criterion, max_depth and min_samples_leaf.
type TreeParams struct {
	Criterion      Criterion
	MaxDepth       int // 0 = unlimited
	MinSamplesLeaf int // minimum samples per leaf (≥1)
}

// DefaultTreeParams mirror a pruned scikit-learn DecisionTreeClassifier.
func DefaultTreeParams() TreeParams {
	return TreeParams{Criterion: Gini, MaxDepth: 10, MinSamplesLeaf: 5}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // child indices into Tree.nodes
	right     int
	label     int // majority class (used at leaves)
	samples   int
}

// Tree is a CART decision-tree classifier over continuous features.
type Tree struct {
	nodes      []node
	nFeatures  int
	nClasses   int
	importance []float64 // un-normalized Gini importance per feature
	params     TreeParams
}

// TrainTree fits a decision tree to X (n×f) with integer class labels Y.
// Fitting several trees on one matrix is cheaper through Presort and
// Presorted.TrainTree, which sort the matrix once for all of them.
func TrainTree(x [][]float64, y []int, p TreeParams) (*Tree, error) {
	ps, err := Presort(x)
	if err != nil {
		return nil, err
	}
	return ps.TrainTree(y, p)
}

// impurity computes the node impurity from class counts.
func impurity(counts []int, total int, c Criterion) float64 {
	if total == 0 {
		return 0
	}
	switch c {
	case Entropy:
		e := 0.0
		for _, n := range counts {
			if n == 0 {
				continue
			}
			p := float64(n) / float64(total)
			e -= p * math.Log2(p)
		}
		return e
	default:
		g := 1.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			g -= p * p
		}
		return g
	}
}

func majority(counts []int) int {
	best, bn := 0, -1
	for c, n := range counts {
		if n > bn {
			best, bn = c, n
		}
	}
	return best
}

// Presorted is a training matrix together with, for every feature, its row
// indices in ascending order of that feature's value. CART scans each
// node's samples in feature order; sorting once per matrix and partitioning
// those orders as the tree grows replaces a sort per node and feature, and
// one Presorted serves every tree fitted on the same matrix (one per
// configuration parameter, or one per hyperparameter setting).
//
// A Presorted is read-only after Presort returns: each fit copies the
// orders it partitions. The rows of the matrix must not change while it is
// in use.
type Presorted struct {
	x     [][]float64
	nf    int
	order []int32 // feature f's row order is order[f*len(x) : (f+1)*len(x)]
}

// Presort checks that x is a non-empty matrix of finite values with at
// least one feature, then sorts each feature's row indices by value.
func Presort(x [][]float64) (*Presorted, error) {
	n := len(x)
	if n == 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("ml: bad training set: %d samples", n)
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, fmt.Errorf("ml: bad training set: rows have no features")
	}
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("ml: bad training set: row %d has %d features, row 0 has %d", i, len(row), nf)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ml: bad training set: row %d feature %d is %v", i, f, v)
			}
		}
	}
	type keyed struct {
		v float64
		i int32
	}
	col := make([]keyed, n)
	ps := &Presorted{x: x, nf: nf, order: make([]int32, n*nf)}
	for f := 0; f < nf; f++ {
		for i, row := range x {
			col[i] = keyed{row[f], int32(i)}
		}
		// Equal values, ±0 included, may come out in any order: a split
		// is only ever taken between two distinct values, so the order
		// within a run of equal values reaches no threshold, count or gain.
		slices.SortFunc(col, func(a, b keyed) int {
			if a.v < b.v {
				return -1
			}
			if a.v > b.v {
				return 1
			}
			return 0
		})
		o := ps.order[f*n : (f+1)*n]
		for k, e := range col {
			o[k] = e.i
		}
	}
	return ps, nil
}

// TrainTree fits a decision tree to the presorted matrix with integer class
// labels y, one per row.
func (ps *Presorted) TrainTree(y []int, p TreeParams) (*Tree, error) {
	if len(y) != len(ps.x) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(ps.x), len(y))
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	nc := 0
	for _, yy := range y {
		if yy < 0 {
			return nil, fmt.Errorf("ml: negative class label %d", yy)
		}
		if yy+1 > nc {
			nc = yy + 1
		}
	}
	t := &Tree{nFeatures: ps.nf, nClasses: nc, importance: make([]float64, ps.nf), params: p}
	g := &grower{
		t: t, x: ps.x, y: y, n: len(ps.x),
		order:    slices.Clone(ps.order),
		spill:    make([]int32, len(ps.x)),
		left:     make([]bool, len(ps.x)),
		counts:   make([]int, nc),
		leftCnt:  make([]int, nc),
		rightCnt: make([]int, nc),
	}
	g.grow(0, len(ps.x), 0)
	return t, nil
}

// grower holds one fit's working state. Every node owns the same range
// [lo, hi) of every feature's order, and splitting a node stable-partitions
// each of those ranges, so both children's ranges stay sorted.
type grower struct {
	t     *Tree
	x     [][]float64
	y     []int
	n     int
	order []int32 // this fit's copy of Presorted.order
	spill []int32 // right-hand rows during a partition
	left  []bool  // per row: goes to the left child of the node being split

	// Class counts of the node being grown, and of the two sides of the
	// boundary being scored. A node is done with them before its children
	// are grown, so one set serves the whole tree.
	counts, leftCnt, rightCnt []int
}

// grow grows the subtree over the rows in [lo, hi) of each feature's order
// and returns its node id. Nodes are appended depth-first, left before
// right. The scan visits, per feature, the same boundaries between distinct
// values in the same ascending order with the same class counts as sorting
// the node's rows would, so the tree is the one a per-node sort grows.
func (g *grower) grow(lo, hi, depth int) int {
	t := g.t
	n := hi - lo
	counts := g.counts
	clear(counts)
	for _, i := range g.order[lo:hi] { // feature 0's range: the node's rows
		counts[g.y[i]]++
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, label: majority(counts), samples: n})

	imp := impurity(counts, n, t.params.Criterion)
	if imp == 0 || n < 2*t.params.MinSamplesLeaf ||
		(t.params.MaxDepth > 0 && depth >= t.params.MaxDepth) {
		return id
	}

	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	leftCnt, rightCnt := g.leftCnt, g.rightCnt
	for f := 0; f < t.nFeatures; f++ {
		sorted := g.order[f*g.n+lo : f*g.n+hi]
		clear(leftCnt)
		for k := 0; k < n-1; k++ {
			leftCnt[g.y[sorted[k]]]++
			nl := k + 1
			nr := n - nl
			if nl < t.params.MinSamplesLeaf || nr < t.params.MinSamplesLeaf {
				continue
			}
			v, vn := g.x[sorted[k]][f], g.x[sorted[k+1]][f]
			if v == vn {
				continue // cannot split between equal values
			}
			for c := range rightCnt {
				rightCnt[c] = counts[c] - leftCnt[c]
			}
			gain := imp -
				(float64(nl)*impurity(leftCnt, nl, t.params.Criterion)+
					float64(nr)*impurity(rightCnt, nr, t.params.Criterion))/float64(n)
			if gain > bestGain {
				bestFeat, bestThr, bestGain = f, (v+vn)/2, gain
			}
		}
	}
	if bestFeat < 0 {
		return id
	}

	nl := 0
	for _, i := range g.order[lo:hi] {
		g.left[i] = g.x[i][bestFeat] <= bestThr
		if g.left[i] {
			nl++
		}
	}
	if nl == 0 || nl == n {
		return id
	}
	t.importance[bestFeat] += float64(n) * bestGain
	for f := 0; f < t.nFeatures; f++ {
		rows := g.order[f*g.n+lo : f*g.n+hi]
		a, b := 0, 0
		for _, i := range rows {
			if g.left[i] {
				rows[a] = i
				a++
			} else {
				g.spill[b] = i
				b++
			}
		}
		copy(rows[a:], g.spill[:b])
	}
	l := g.grow(lo, lo+nl, depth+1)
	r := g.grow(lo+nl, hi, depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].threshold = bestThr
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// Predict returns the predicted class of x.
func (t *Tree) Predict(x []float64) int {
	id := 0
	for {
		n := t.nodes[id]
		if n.feature < 0 {
			return n.label
		}
		if x[n.feature] <= n.threshold {
			id = n.left
		} else {
			id = n.right
		}
	}
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int {
	var d func(id int) int
	d = func(id int) int {
		n := t.nodes[id]
		if n.feature < 0 {
			return 0
		}
		l, r := d(n.left), d(n.right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	return d(0)
}

// NodeCount returns the total node count.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// NumFeatures returns the feature-vector width the tree was trained on.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// NumClasses returns the number of classes the tree predicts.
func (t *Tree) NumClasses() int { return t.nClasses }

// Validate checks the structural invariants Predict depends on, so a tree
// deserialized from an untrusted (possibly corrupted) file cannot read out
// of bounds, loop forever, or emit labels outside [0, NumClasses). Trees
// built by TrainTree always pass.
func (t *Tree) Validate() error {
	if t.nFeatures < 1 || t.nClasses < 1 {
		return fmt.Errorf("ml: tree declares %d features, %d classes", t.nFeatures, t.nClasses)
	}
	if len(t.nodes) == 0 {
		return fmt.Errorf("ml: tree has no nodes")
	}
	if t.importance != nil && len(t.importance) != t.nFeatures {
		return fmt.Errorf("ml: importance length %d != %d features", len(t.importance), t.nFeatures)
	}
	if t.params.MaxDepth < 0 || t.params.MinSamplesLeaf < 0 {
		return fmt.Errorf("ml: negative hyperparameters (max depth %d, min leaf %d)", t.params.MaxDepth, t.params.MinSamplesLeaf)
	}
	for i, n := range t.nodes {
		if n.feature < 0 {
			// Leaf: Predict returns its label directly.
			if n.label < 0 || n.label >= t.nClasses {
				return fmt.Errorf("ml: leaf %d labels class %d of %d", i, n.label, t.nClasses)
			}
			continue
		}
		if n.feature >= t.nFeatures {
			return fmt.Errorf("ml: node %d splits on feature %d of %d", i, n.feature, t.nFeatures)
		}
		if math.IsNaN(n.threshold) || math.IsInf(n.threshold, 0) {
			return fmt.Errorf("ml: node %d has non-finite threshold", i)
		}
		// Children must point strictly forward: this single invariant makes
		// the structure acyclic, so Predict terminates on any input.
		if n.left <= i || n.left >= len(t.nodes) || n.right <= i || n.right >= len(t.nodes) {
			return fmt.Errorf("ml: node %d has out-of-order children (%d, %d)", i, n.left, n.right)
		}
	}
	return nil
}

// FeatureImportance returns the normalized Gini importance per feature
// (total impurity reduction contributed by splits on that feature), the
// quantity Figure 10 reports.
func (t *Tree) FeatureImportance() []float64 {
	out := make([]float64, t.nFeatures)
	total := 0.0
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// Prune performs reduced-error pruning against a validation set: any
// internal node whose collapse does not reduce validation accuracy becomes
// a leaf. It returns the number of collapsed nodes.
func (t *Tree) Prune(xVal [][]float64, yVal []int) int {
	if len(xVal) == 0 {
		return 0
	}
	pruned := 0
	for {
		base := Accuracy(t, xVal, yVal)
		improved := false
		for id := range t.nodes {
			n := &t.nodes[id]
			if n.feature < 0 {
				continue
			}
			save := *n
			n.feature = -1
			if Accuracy(t, xVal, yVal) >= base {
				pruned++
				improved = true
			} else {
				*n = save
			}
		}
		if !improved {
			return pruned
		}
	}
}

// Accuracy computes classification accuracy of any classifier on a set.
func Accuracy(c Classifier, x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	ok := 0
	for i := range x {
		if c.Predict(x[i]) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(x))
}
