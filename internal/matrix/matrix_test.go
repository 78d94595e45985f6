package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCOOToCSRBasic(t *testing.T) {
	m := NewCOO(3, 4)
	m.Add(0, 1, 2)
	m.Add(2, 3, 5)
	m.Add(1, 0, -1)
	m.Add(0, 1, 3) // duplicate, must be summed
	csr := m.ToCSR()
	if csr.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (duplicates merged)", csr.NNZ())
	}
	d := csr.Dense()
	if d[0][1] != 5 || d[2][3] != 5 || d[1][0] != -1 {
		t.Fatalf("dense = %v", d)
	}
}

func TestCOOToCSCBasic(t *testing.T) {
	m := NewCOO(3, 3)
	m.Add(0, 0, 1)
	m.Add(2, 0, 2)
	m.Add(1, 2, 3)
	csc := m.ToCSC()
	rows, vals := csc.Col(0)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("col 0 = %v %v", rows, vals)
	}
	if r, _ := csc.Col(1); len(r) != 0 {
		t.Fatalf("col 1 should be empty")
	}
}

func TestValidate(t *testing.T) {
	m := NewCOO(2, 2)
	m.Add(0, 0, 1)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	m.Add(2, 0, 1)
	if err := m.Validate(); err == nil {
		t.Fatal("out-of-bounds entry accepted")
	}
	bad := &COO{Rows: 2, Cols: 2, R: []int{0}, C: []int{0, 1}, V: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
}

// TestCompressedValidateErrors pins the exact error of every malformed
// CSR and CSC matrix class, checked in Validate's order.
func TestCompressedValidateErrors(t *testing.T) {
	type arrays struct {
		rows, cols int
		ptr, idx   []int
		val        []float64
	}
	cases := []struct {
		name     string
		a        arrays
		csr, csc string // "" = valid
	}{
		{"valid", arrays{2, 2, []int{0, 1, 2}, []int{1, 0}, []float64{1, 2}}, "", ""},
		{"empty", arrays{0, 0, []int{0}, nil, nil}, "", ""},
		{"negative shape", arrays{-1, 2, []int{0}, nil, nil},
			"matrix: CSR negative shape -1x2", "matrix: CSC negative shape -1x2"},
		{"short pointers", arrays{2, 2, []int{0, 2}, []int{0, 1}, []float64{1, 2}},
			"matrix: CSR RowPtr length 2, want 3", "matrix: CSC ColPtr length 2, want 3"},
		{"index/value lengths", arrays{2, 2, []int{0, 1, 2}, []int{0, 1}, []float64{1}},
			"matrix: CSR index/value lengths disagree", "matrix: CSC index/value lengths disagree"},
		{"first pointer", arrays{2, 2, []int{1, 1, 2}, []int{0, 1}, []float64{1, 2}},
			"matrix: CSR RowPtr endpoints 1..2, want 0..2", "matrix: CSC ColPtr endpoints 1..2, want 0..2"},
		{"last pointer", arrays{2, 2, []int{0, 1, 1}, []int{0, 1}, []float64{1, 2}},
			"matrix: CSR RowPtr endpoints 0..1, want 0..2", "matrix: CSC ColPtr endpoints 0..1, want 0..2"},
		{"decreasing pointer", arrays{3, 3, []int{0, 2, 1, 2}, []int{0, 1}, []float64{1, 2}},
			"matrix: CSR RowPtr decreases at row 1", "matrix: CSC ColPtr decreases at column 1"},
		{"index too large", arrays{2, 2, []int{0, 1, 2}, []int{0, 2}, []float64{1, 2}},
			"matrix: CSR column 2 out of bounds in row 1", "matrix: CSC row 2 out of bounds in column 1"},
		{"negative index", arrays{2, 2, []int{0, 1, 2}, []int{-1, 0}, []float64{1, 2}},
			"matrix: CSR column -1 out of bounds in row 0", "matrix: CSC row -1 out of bounds in column 0"},
		{"repeated index", arrays{2, 2, []int{0, 0, 2}, []int{1, 1}, []float64{1, 2}},
			"matrix: CSR row 1 columns not strictly increasing", "matrix: CSC column 1 rows not strictly increasing"},
		{"descending index", arrays{2, 2, []int{0, 2, 2}, []int{1, 0}, []float64{1, 2}},
			"matrix: CSR row 0 columns not strictly increasing", "matrix: CSC column 0 rows not strictly increasing"},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, c := range cases {
		a := c.a
		// The pointer array runs over rows in CSR and over columns in CSC,
		// so the CSC case swaps the shape to keep the same arrays valid.
		csr := &CSR{Rows: a.rows, Cols: a.cols, RowPtr: a.ptr, ColIdx: a.idx, Val: a.val}
		if got := errText(csr.Validate()); got != c.csr {
			t.Errorf("%s: CSR Validate = %q, want %q", c.name, got, c.csr)
		}
		csc := &CSC{Rows: a.cols, Cols: a.rows, ColPtr: a.ptr, RowIdx: a.idx, Val: a.val}
		if a.rows < 0 {
			csc.Rows, csc.Cols = a.rows, a.cols
		}
		if got := errText(csc.Validate()); got != c.csc {
			t.Errorf("%s: CSC Validate = %q, want %q", c.name, got, c.csc)
		}
	}
}

func randomCOO(rng *rand.Rand, maxDim, maxNNZ int) *COO {
	n := 1 + rng.Intn(maxDim)
	m := 1 + rng.Intn(maxDim)
	out := NewCOO(n, m)
	for i := 0; i < rng.Intn(maxNNZ+1); i++ {
		out.Add(rng.Intn(n), rng.Intn(m), float64(rng.Intn(20))-10)
	}
	return out
}

func denseOf(m *COO) [][]float64 {
	d := make([][]float64, m.Rows)
	for r := range d {
		d[r] = make([]float64, m.Cols)
	}
	for i := range m.V {
		d[m.R[i]][m.C[i]] += m.V[i]
	}
	return d
}

func denseEq(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if d := a[i][j] - b[i][j]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
	}
	return true
}

// Property: COO→CSR and COO→CSC preserve the dense expansion.
func TestQuickCompressionPreservesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCOO(rng, 12, 40)
		want := denseOf(m)
		if !denseEq(want, m.ToCSR().Dense()) {
			return false
		}
		return denseEq(want, m.ToCSC().ToCSR().Dense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution and swaps coordinates.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCOO(rng, 10, 30).ToCSR()
		tt := m.Transpose().Transpose()
		return m.Equal(tt, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR row indices are sorted and strictly increasing within rows.
func TestQuickCSRSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCOO(rng, 15, 80).ToCSR()
		for r := 0; r < m.Rows; r++ {
			cols, _ := m.Row(r)
			for i := 1; i < len(cols); i++ {
				if cols[i] <= cols[i-1] {
					return false
				}
			}
		}
		return m.RowPtr[m.Rows] == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseVec(t *testing.T) {
	v := NewSparseVec(10, []int{5, 1, 5, 3}, []float64{1, 2, 4, 3})
	if v.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", v.NNZ())
	}
	if v.Get(5) != 5 {
		t.Fatalf("Get(5) = %v, want 5 (duplicates merged)", v.Get(5))
	}
	if v.Get(0) != 0 {
		t.Fatalf("Get(0) = %v, want 0", v.Get(0))
	}
	for i := 1; i < len(v.Idx); i++ {
		if v.Idx[i] <= v.Idx[i-1] {
			t.Fatalf("indices not sorted: %v", v.Idx)
		}
	}
}

func TestUniformGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Uniform(rng, 100, 200, 500)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 500 {
		t.Fatalf("NNZ = %d, want 500", m.NNZ())
	}
	if m.Rows != 100 || m.Cols != 200 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
}

func TestRMATPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RMATDefault(rng, 256, 4000)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Power-law structure: with A=C=0.1, B=0.4 the column distribution is
	// heavily skewed, so the max column degree should far exceed the mean.
	deg := make([]int, 256)
	for _, c := range m.C {
		deg[c]++
	}
	max, sum := 0, 0
	for _, d := range deg {
		if d > max {
			max = d
		}
		sum += d
	}
	mean := float64(sum) / 256
	if float64(max) < 4*mean {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", max, mean)
	}
}

func TestBandedStaysInBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Banded(rng, 200, 1000, 10)
	for i := range m.R {
		d := m.R[i] - m.C[i]
		if d < -10 || d > 10 {
			t.Fatalf("entry (%d,%d) outside band", m.R[i], m.C[i])
		}
	}
}

func TestDenseStripsHasDenseColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := DenseStrips(rng, 128, 0.2, 8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	csc := m.ToCSC()
	// The separator columns must be much denser than the average column.
	maxCol, total := 0, 0
	for c := 0; c < 128; c++ {
		n := csc.ColPtr[c+1] - csc.ColPtr[c]
		if n > maxCol {
			maxCol = n
		}
		total += n
	}
	if float64(maxCol) < 2*float64(total)/128 {
		t.Fatalf("no dense separator columns: max %d mean %.1f", maxCol, float64(total)/128)
	}
}

func TestAllDatasetEntriesGenerate(t *testing.T) {
	for _, e := range Dataset {
		m := e.Generate(0.05, 42)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if m.NNZ() == 0 {
			t.Fatalf("%s: empty matrix", e.ID)
		}
	}
}

func TestDatasetDeterministic(t *testing.T) {
	e, err := Entry("R07")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Generate(0.1, 7).ToCSR()
	b := e.Generate(0.1, 7).ToCSR()
	if !a.Equal(b, 0) {
		t.Fatal("generation not deterministic for fixed seed")
	}
}

func TestEntryUnknown(t *testing.T) {
	if _, err := Entry("R99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestRandomVecDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := RandomVec(rng, 1000, 0.5)
	if v.NNZ() < 400 || v.NNZ() > 600 {
		t.Fatalf("NNZ = %d, want ~500", v.NNZ())
	}
}

func TestGrid2DSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := Grid2D(rng, 100, 0).ToCSR()
	mt := m.Transpose()
	if !m.Equal(mt, 1e-12) {
		t.Fatal("stencil matrix not symmetric")
	}
}

func TestStructureClassString(t *testing.T) {
	classes := []StructureClass{StructUniform, StructPowerLaw, StructBanded,
		StructClustered, StructGrid, StructHub, StructBlockTridiag, StructDenseStrips}
	seen := map[string]bool{}
	for _, c := range classes {
		s := c.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate class name %q", s)
		}
		seen[s] = true
	}
	if StructureClass(99).String() != "unknown" {
		t.Fatal("out-of-range class should be unknown")
	}
}
