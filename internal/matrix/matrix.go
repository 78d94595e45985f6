// Package matrix provides the sparse matrix substrate used throughout the
// SparseAdapt reproduction: compressed formats (CSR, CSC, COO), sparse
// vectors, conversions, and the synthetic dataset generators that stand in
// for the paper's SciPy / R-MAT / SuiteSparse / SNAP inputs.
//
// The paper stores matrix A in compressed sparse column (CSC) and matrix B
// in compressed sparse row (CSR) for the outer-product SpMSpM kernel
// (Section 5.4); the formats here mirror that usage.
package matrix

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// COO is a coordinate-format sparse matrix. It is the interchange format
// produced by all generators; kernels consume CSR/CSC built from it.
type COO struct {
	Rows, Cols int
	R, C       []int
	V          []float64
}

// NewCOO returns an empty COO matrix of the given shape.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends one entry. Duplicate coordinates are allowed; they are summed
// during conversion to a compressed format, matching SciPy semantics.
func (m *COO) Add(r, c int, v float64) {
	m.R = append(m.R, r)
	m.C = append(m.C, c)
	m.V = append(m.V, v)
}

// NNZ returns the number of stored entries (before duplicate merging).
func (m *COO) NNZ() int { return len(m.V) }

// Validate checks coordinate bounds and slice-length agreement.
func (m *COO) Validate() error {
	if len(m.R) != len(m.C) || len(m.R) != len(m.V) {
		return errors.New("matrix: COO slice lengths disagree")
	}
	for i := range m.R {
		if m.R[i] < 0 || m.R[i] >= m.Rows || m.C[i] < 0 || m.C[i] >= m.Cols {
			return fmt.Errorf("matrix: COO entry %d (%d,%d) out of bounds %dx%d",
				i, m.R[i], m.C[i], m.Rows, m.Cols)
		}
	}
	return nil
}

// CSR is a compressed sparse row matrix. Column indices within each row are
// sorted ascending and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// CSC is a compressed sparse column matrix. Row indices within each column
// are sorted ascending and unique.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // len Cols+1
	RowIdx     []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// NNZ returns the number of stored nonzeros.
func (m *CSC) NNZ() int { return len(m.Val) }

// Row returns the column indices and values of row r as sub-slices; callers
// must not mutate them.
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Col returns the row indices and values of column c as sub-slices; callers
// must not mutate them.
func (m *CSC) Col(c int) (rows []int, vals []float64) {
	lo, hi := m.ColPtr[c], m.ColPtr[c+1]
	return m.RowIdx[lo:hi], m.Val[lo:hi]
}

// cooEntry is one COO entry keyed for compression: maj is its row in a
// row-major (CSR) compression and its column in a column-major (CSC) one.
type cooEntry struct {
	maj, min int
	v        float64
}

// cmpEntry orders entries by (major, minor). cmpEntry(a, b) < 0 exactly
// when a sorts before b, so pdqsort compares as it did under sort.Slice
// with the same less.
func cmpEntry(a, b cooEntry) int {
	switch {
	case a.maj < b.maj:
		return -1
	case a.maj > b.maj:
		return 1
	case a.min < b.min:
		return -1
	case a.min > b.min:
		return 1
	}
	return 0
}

// compress returns the pointer, index and value arrays of m's row-major
// (CSR) or column-major (CSC) form: entries in (major, minor) order,
// duplicates summed. Entries with distinct coordinates take a bucket sort
// in O(nnz + major); an input with a repeated coordinate takes the
// comparison sort, because the bits of a duplicate sum depend on the
// order pdqsort leaves equal keys in. The only array either sizes by a
// dimension is the major one's pointer array.
func compress(m *COO, rowMajor bool) (ptr, idx []int, val []float64) {
	major, majors, minors := m.Cols, m.C, m.R
	if rowMajor {
		major, majors, minors = m.Rows, m.R, m.C
	}
	ptr = make([]int, major+1)
	idx = make([]int, len(m.V))
	val = make([]float64, len(m.V))
	if bucketCompress(ptr, idx, val, majors, minors, m.V) {
		return ptr, idx, val
	}
	clear(ptr)
	n := sortCompress(ptr, idx, val, majors, minors, m.V)
	return ptr, idx[:n:n], val[:n:n]
}

// insertionMax is the longest bucket bucketCompress orders by insertion;
// a longer one takes pdqsort, so an unsorted hub row or column costs
// O(b log b), not O(b²).
const insertionMax = 16

// bucketCompress fills ptr (zeroed, one longer than the major dimension)
// and idx and val (one slot per entry) when no two entries share a
// coordinate. A counting sort puts each entry into its major's bucket in
// input order, and each bucket is then ordered by minor. Distinct
// coordinates have exactly one sorted order, so the arrays equal the
// comparison sort's. It reports false at the first repeated coordinate.
func bucketCompress(ptr, idx []int, val []float64, majors, minors []int, vals []float64) bool {
	major := len(ptr) - 1
	for _, k := range majors {
		ptr[k+1]++
	}
	for k := 0; k < major; k++ {
		ptr[k+1] += ptr[k]
	}
	// ptr[k] is bucket k's start. Used as the bucket's cursor it ends at
	// the bucket's end, ptr[k+1]'s final value, so shift it back by one.
	for i, k := range majors {
		idx[ptr[k]], val[ptr[k]] = minors[i], vals[i]
		ptr[k]++
	}
	copy(ptr[1:], ptr[:major])
	ptr[0] = 0
	for k := 0; k < major; k++ {
		b := byMinor{idx[ptr[k]:ptr[k+1]], val[ptr[k]:ptr[k+1]]}
		if len(b.idx) > insertionMax {
			sort.Sort(b)
		} else {
			for i := 1; i < len(b.idx); i++ {
				for j := i; j > 0 && b.idx[j] < b.idx[j-1]; j-- {
					b.Swap(j, j-1)
				}
			}
		}
		for i := 1; i < len(b.idx); i++ {
			if b.idx[i] == b.idx[i-1] {
				return false
			}
		}
	}
	return true
}

// byMinor orders one bucket's entries by minor index.
type byMinor struct {
	idx []int
	val []float64
}

func (b byMinor) Len() int           { return len(b.idx) }
func (b byMinor) Less(i, j int) bool { return b.idx[i] < b.idx[j] }
func (b byMinor) Swap(i, j int) {
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
	b.val[i], b.val[j] = b.val[j], b.val[i]
}

// sortCompress fills ptr (zeroed) and the first n slots of idx and val,
// n the number of distinct coordinates, by sorting every entry in
// (major, minor) order and summing duplicates in the sorted order.
// slices.SortFunc runs the same pdqsort as sort.Slice, so equal
// coordinates meet in the same order and their sums keep their bits; a
// stable sort would add a run of three or more in input order and change
// them.
func sortCompress(ptr, idx []int, val []float64, majors, minors []int, vals []float64) int {
	es := make([]cooEntry, len(vals))
	for i, v := range vals {
		es[i] = cooEntry{majors[i], minors[i], v}
	}
	slices.SortFunc(es, cmpEntry)
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].maj == e.maj && out[n-1].min == e.min {
			out[n-1].v += e.v
			continue
		}
		out = append(out, e)
	}
	for i, e := range out {
		ptr[e.maj+1]++
		idx[i] = e.min
		val[i] = e.v
	}
	for k := 0; k+1 < len(ptr); k++ {
		ptr[k+1] += ptr[k]
	}
	return len(out)
}

// ToCSR converts the COO matrix to CSR form, summing duplicates.
func (m *COO) ToCSR() *CSR {
	ptr, idx, val := compress(m, true)
	return &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: ptr, ColIdx: idx, Val: val}
}

// ToCSC converts the COO matrix to CSC form, summing duplicates.
func (m *COO) ToCSC() *CSC {
	ptr, idx, val := compress(m, false)
	return &CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: ptr, RowIdx: idx, Val: val}
}

// ToCOO expands the CSR matrix back to coordinate form.
func (m *CSR) ToCOO() *COO {
	out := NewCOO(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			out.Add(r, c, vals[i])
		}
	}
	return out
}

// ToCOO expands the CSC matrix back to coordinate form.
func (m *CSC) ToCOO() *COO {
	out := NewCOO(m.Rows, m.Cols)
	for c := 0; c < m.Cols; c++ {
		rows, vals := m.Col(c)
		for i, r := range rows {
			out.Add(r, c, vals[i])
		}
	}
	return out
}

// ToCSC converts CSR to CSC with a direct O(nnz) counting-sort transpose
// of the index structure — the access pattern the format-conversion cost
// model charges for. A valid CSR input (sorted, unique column indices per
// row) yields output identical to the COO round trip.
func (m *CSR) ToCSC() *CSC {
	out := &CSC{
		Rows:   m.Rows,
		Cols:   m.Cols,
		ColPtr: make([]int, m.Cols+1),
		RowIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		out.ColPtr[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		out.ColPtr[c+1] += out.ColPtr[c]
	}
	next := make([]int, m.Cols)
	copy(next, out.ColPtr[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			k := next[c]
			next[c]++
			out.RowIdx[k] = r
			out.Val[k] = vals[i]
		}
	}
	return out
}

// transposed reads the CSC arrays of A as the CSR arrays of Aᵀ, sharing
// them.
func (m *CSC) transposed() *CSR {
	return &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
}

// ToCSR converts CSC to CSR: the CSC of Aᵀ that (*CSR).ToCSC builds from
// the CSR arrays of Aᵀ holds the CSR arrays of A.
func (m *CSC) ToCSR() *CSR {
	t := m.transposed().ToCSC()
	return &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val}
}

// Validate checks the CSR invariants: pointer array monotone from 0 to NNZ
// with the right length, and column indices in bounds and strictly
// increasing within each row.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("matrix: CSR negative shape %dx%d", m.Rows, m.Cols)
	}
	return checkCompressed("CSR", "RowPtr", "row", "column", m.Rows, m.Cols, m.RowPtr, m.ColIdx, len(m.Val))
}

// Validate checks the CSC invariants, the mirror of (*CSR).Validate.
func (m *CSC) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("matrix: CSC negative shape %dx%d", m.Rows, m.Cols)
	}
	return checkCompressed("CSC", "ColPtr", "column", "row", m.Cols, m.Rows, m.ColPtr, m.RowIdx, len(m.Val))
}

// checkCompressed checks one compressed layout, the pointer array ptr over
// majors lines and the minor indices idx of nval values: ptr of length
// majors+1, monotone from 0 to nval, and indices below minors and
// strictly increasing within each line. The names fill in the error texts.
func checkCompressed(f, ptrName, major, minor string, majors, minors int, ptr, idx []int, nval int) error {
	if len(ptr) != majors+1 {
		return fmt.Errorf("matrix: %s %s length %d, want %d", f, ptrName, len(ptr), majors+1)
	}
	if len(idx) != nval {
		return fmt.Errorf("matrix: %s index/value lengths disagree", f)
	}
	if ptr[0] != 0 || ptr[majors] != nval {
		return fmt.Errorf("matrix: %s %s endpoints %d..%d, want 0..%d", f, ptrName, ptr[0], ptr[majors], nval)
	}
	// Vet the whole pointer array before dereferencing idx: a decreasing
	// or out-of-range interior pointer would otherwise index past the
	// arrays below (pairwise checks alone reach the bad line too late).
	for i := 0; i < majors; i++ {
		if ptr[i] > ptr[i+1] {
			return fmt.Errorf("matrix: %s %s decreases at %s %d", f, ptrName, major, i)
		}
	}
	for i := 0; i < majors; i++ {
		lo, hi := ptr[i], ptr[i+1]
		for k := lo; k < hi; k++ {
			j := idx[k]
			if j < 0 || j >= minors {
				return fmt.Errorf("matrix: %s %s %d out of bounds in %s %d", f, minor, j, major, i)
			}
			if k > lo && j <= idx[k-1] {
				return fmt.Errorf("matrix: %s %s %d %ss not strictly increasing", f, major, i, minor)
			}
		}
	}
	return nil
}

// Transpose returns the transpose of the matrix in CSR form. Since the CSC
// representation of A has the same layout as the CSR representation of Aᵀ,
// this is a format flip plus a relabelling.
func (m *CSR) Transpose() *CSR {
	t := m.ToCSC()
	return &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: t.ColPtr, ColIdx: t.RowIdx, Val: t.Val}
}

// Transpose returns the transpose in CSC form.
func (m *CSC) Transpose() *CSC { return m.transposed().ToCSC() }

// Dense expands the matrix to a dense row-major [][]float64. Only intended
// for test verification on small matrices.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for r := range d {
		d[r] = make([]float64, m.Cols)
		cols, vals := m.Row(r)
		for i, c := range cols {
			d[r][c] = vals[i]
		}
	}
	return d
}

// Density returns NNZ / (Rows*Cols).
func (m *CSR) Density() float64 {
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// Equal reports whether two CSR matrices have identical structure and values
// within tolerance tol.
func (m *CSR) Equal(o *CSR, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != o.ColIdx[i] {
			return false
		}
		if d := m.Val[i] - o.Val[i]; d > tol || d < -tol {
			return false
		}
	}
	return true
}

// SparseVec is a sorted index/value sparse vector, the array-of-tuples form
// the paper uses for the SpMSpV operand B (Section 5.4).
type SparseVec struct {
	N   int
	Idx []int
	Val []float64
}

// NewSparseVec builds a sparse vector from parallel index/value slices,
// sorting by index and merging duplicates.
func NewSparseVec(n int, idx []int, val []float64) *SparseVec {
	type iv struct {
		i int
		v float64
	}
	es := make([]iv, len(idx))
	for k := range idx {
		es[k] = iv{idx[k], val[k]}
	}
	sort.Slice(es, func(a, b int) bool { return es[a].i < es[b].i })
	out := &SparseVec{N: n}
	for _, e := range es {
		if k := len(out.Idx); k > 0 && out.Idx[k-1] == e.i {
			out.Val[k-1] += e.v
			continue
		}
		out.Idx = append(out.Idx, e.i)
		out.Val = append(out.Val, e.v)
	}
	return out
}

// NNZ returns the number of stored entries.
func (v *SparseVec) NNZ() int { return len(v.Idx) }

// Dense expands the vector for test verification.
func (v *SparseVec) Dense() []float64 {
	d := make([]float64, v.N)
	for k, i := range v.Idx {
		d[i] = v.Val[k]
	}
	return d
}

// Get returns the value at index i (0 if absent) using binary search.
func (v *SparseVec) Get(i int) float64 {
	k := sort.SearchInts(v.Idx, i)
	if k < len(v.Idx) && v.Idx[k] == i {
		return v.Val[k]
	}
	return 0
}
