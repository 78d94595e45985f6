package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceTree is the builder Presorted replaced: it sorts every node's
// samples once per feature. It stays here, unchanged, as the reference the
// presorted trees must equal bit for bit.
func referenceTree(x [][]float64, y []int, p TreeParams) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(x), len(y))
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	nf := len(x[0])
	nc := 0
	for _, yy := range y {
		if yy < 0 {
			return nil, fmt.Errorf("ml: negative class label %d", yy)
		}
		if yy+1 > nc {
			nc = yy + 1
		}
	}
	t := &Tree{nFeatures: nf, nClasses: nc, importance: make([]float64, nf), params: p}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.referenceBuild(x, y, idx, 0)
	return t, nil
}

// referenceBuild grows the subtree over the samples in idx and returns its
// node id.
func (t *Tree) referenceBuild(x [][]float64, y []int, idx []int, depth int) int {
	counts := make([]int, t.nClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, label: majority(counts), samples: len(idx)})

	imp := impurity(counts, len(idx), t.params.Criterion)
	if imp == 0 || len(idx) < 2*t.params.MinSamplesLeaf ||
		(t.params.MaxDepth > 0 && depth >= t.params.MaxDepth) {
		return id
	}

	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	sorted := make([]int, len(idx))
	leftCnt := make([]int, t.nClasses)
	for f := 0; f < t.nFeatures; f++ {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })
		for c := range leftCnt {
			leftCnt[c] = 0
		}
		for k := 0; k < len(sorted)-1; k++ {
			leftCnt[y[sorted[k]]]++
			nl := k + 1
			nr := len(sorted) - nl
			if nl < t.params.MinSamplesLeaf || nr < t.params.MinSamplesLeaf {
				continue
			}
			v, vn := x[sorted[k]][f], x[sorted[k+1]][f]
			if v == vn {
				continue // cannot split between equal values
			}
			rightCnt := make([]int, t.nClasses)
			for c := range rightCnt {
				rightCnt[c] = counts[c] - leftCnt[c]
			}
			gain := imp -
				(float64(nl)*impurity(leftCnt, nl, t.params.Criterion)+
					float64(nr)*impurity(rightCnt, nr, t.params.Criterion))/float64(len(sorted))
			if gain > bestGain {
				bestFeat, bestThr, bestGain = f, (v+vn)/2, gain
			}
		}
	}
	if bestFeat < 0 {
		return id
	}

	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return id
	}
	t.importance[bestFeat] += float64(len(idx)) * bestGain
	l := t.referenceBuild(x, y, li, depth+1)
	r := t.referenceBuild(x, y, ri, depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].threshold = bestThr
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// diffTrees reports the first difference between two trees, comparing
// thresholds and importances by their bits.
func diffTrees(got, want *Tree) error {
	if got.nFeatures != want.nFeatures || got.nClasses != want.nClasses || got.params != want.params {
		return fmt.Errorf("header: got %d features, %d classes, %+v; want %d, %d, %+v",
			got.nFeatures, got.nClasses, got.params, want.nFeatures, want.nClasses, want.params)
	}
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("got %d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for i, w := range want.nodes {
		g := got.nodes[i]
		if g.feature != w.feature || math.Float64bits(g.threshold) != math.Float64bits(w.threshold) ||
			g.left != w.left || g.right != w.right || g.label != w.label || g.samples != w.samples {
			return fmt.Errorf("node %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got.importance) != len(want.importance) {
		return fmt.Errorf("got %d importances, want %d", len(got.importance), len(want.importance))
	}
	for f, w := range want.importance {
		if math.Float64bits(got.importance[f]) != math.Float64bits(w) {
			return fmt.Errorf("importance %d: got %v, want %v", f, got.importance[f], w)
		}
	}
	return nil
}

// tieDataset draws an n×nf matrix built to make ties: integer-quantized
// columns whose zeros carry either sign, constant columns, ±0-only columns
// and duplicated rows, beside continuous columns. Labels take nc classes
// and follow the first and last columns with noise, so trees grow past the
// root.
func tieDataset(rng *rand.Rand, n, nf, nc int) ([][]float64, []int) {
	signedZero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	kinds := make([]int, nf)
	consts := make([]float64, nf)
	for f := range kinds {
		kinds[f] = rng.Intn(5)
		consts[f] = float64(rng.Intn(7) - 3)
	}
	// The label follows the first column, integers, and the last,
	// continuous when it is not also the first.
	kinds[nf-1] = 4
	kinds[0] = 0
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		if i > 0 && rng.Intn(5) == 0 {
			x[i] = slices.Clone(x[rng.Intn(i)])
		} else {
			row := make([]float64, nf)
			for f := range row {
				switch kinds[f] {
				case 0, 1: // a few integers
					if v := rng.Intn(7) - 3; v != 0 {
						row[f] = float64(v)
					} else {
						row[f] = signedZero()
					}
				case 2: // constant
					row[f] = consts[f]
				case 3: // only ±0
					row[f] = signedZero()
				default: // continuous
					row[f] = rng.NormFloat64()
				}
			}
			x[i] = row
		}
		s := x[i][0]
		if nf > 1 {
			s += 2 * x[i][nf-1]
		}
		y[i] = int(math.Abs(math.Floor(s)))%nc + rng.Intn(2)
		if y[i] >= nc || rng.Intn(8) == 0 {
			y[i] = rng.Intn(nc)
		}
	}
	return x, y
}

var (
	refDepths   = []int{0, 1, 2, 5, 10}
	refMinLeafs = []int{1, 2, 5, 20}
)

func TestTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ n, nf, nc int }{
		{1, 1, 1}, {2, 27, 2}, {3, 5, 9}, {8, 1, 3}, {25, 14, 9},
		{60, 3, 4}, {140, 20, 6}, {300, 1, 5}, {300, 27, 9}, {300, 9, 1},
	} {
		n, nf, nc := c.n, c.nf, c.nc
		x, y := tieDataset(rng, n, nf, nc)
		for _, crit := range []Criterion{Gini, Entropy} {
			for _, d := range refDepths {
				for _, ml := range refMinLeafs {
					p := TreeParams{Criterion: crit, MaxDepth: d, MinSamplesLeaf: ml}
					want, err := referenceTree(x, y, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := TrainTree(x, y, p)
					if err != nil {
						t.Fatal(err)
					}
					if err := diffTrees(got, want); err != nil {
						t.Fatalf("n=%d nf=%d nc=%d %+v: %v", n, nf, nc, p, err)
					}
				}
			}
		}
	}
}

// One Presorted fits nine label vectors, as trainer.Train does; each tree
// must equal a fresh fit and the reference, and the shared order must come
// out untouched.
func TestPresortedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _ := tieDataset(rng, 250, 27, 2)
	ps, err := Presort(x)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(ps.order)
	p := TreeParams{Criterion: Gini, MaxDepth: 10, MinSamplesLeaf: 2}
	for k := 0; k < 9; k++ {
		_, y := tieDataset(rand.New(rand.NewSource(int64(100+k))), 250, 27, 2+k%5)
		got, err := ps.TrainTree(y, p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := TrainTree(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceTree(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffTrees(got, fresh); err != nil {
			t.Fatalf("labels %d: reused presort vs fresh fit: %v", k, err)
		}
		if err := diffTrees(got, want); err != nil {
			t.Fatalf("labels %d: reused presort vs reference: %v", k, err)
		}
		if got.NodeCount() < 3 {
			t.Fatalf("labels %d: tree did not split (%d nodes)", k, got.NodeCount())
		}
	}
	if !slices.Equal(ps.order, before) {
		t.Fatal("fitting changed the shared presorted order")
	}
}

// FuzzTrainTreeMatchesReference decodes the input into a small dataset of
// coarsely quantized values (so ties and ±0 are common), labels and tree
// parameters, and requires the presorted tree to equal the reference.
func FuzzTrainTreeMatchesReference(f *testing.F) {
	f.Add([]byte{7, 2, 3, 0x11, 1, 2, 0, 3, 4, 1, 0x87, 7, 2, 9, 1, 7, 7, 0, 0x80, 5, 2})
	f.Add([]byte{40, 5, 8, 0x2a, 200, 13, 99, 7, 7, 7, 0x87, 0x07, 1, 2, 3, 4, 5, 6, 250, 128})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%64
		nf := 1 + int(data[1])%6
		nc := 1 + int(data[2])%9
		p := TreeParams{
			Criterion:      Criterion(data[3] & 1),
			MaxDepth:       refDepths[int(data[3]>>1)%len(refDepths)],
			MinSamplesLeaf: refMinLeafs[int(data[3]>>4)%len(refMinLeafs)],
		}
		data = data[4:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			row := make([]float64, nf)
			for f := range row {
				b := next()
				row[f] = float64(int(b&0x0f)-7) / 2 // 16 values from -3.5 to 4
				if row[f] == 0 && b&0x80 != 0 {
					row[f] = math.Copysign(0, -1)
				}
			}
			x[i] = row
			y[i] = int(next()) % nc
		}
		want, err := referenceTree(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TrainTree(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffTrees(got, want); err != nil {
			t.Fatalf("n=%d nf=%d nc=%d %+v: %v", n, nf, nc, p, err)
		}
	})
}
