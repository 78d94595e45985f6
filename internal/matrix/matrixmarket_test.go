package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
3 4 -1
2 2 7
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.NNZ() != 3 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	d := m.ToCSR().Dense()
	if d[0][0] != 2.5 || d[2][3] != -1 || d[1][1] != 7 {
		t.Fatalf("values wrong: %v", d)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 4
3 3 9
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToCSR().Dense()
	if d[1][0] != 4 || d[0][1] != 4 {
		t.Fatalf("symmetric mirror missing: %v", d)
	}
	if d[2][2] != 9 {
		t.Fatal("diagonal must not be duplicated")
	}
	if m.ToCSR().NNZ() != 3 {
		t.Fatalf("NNZ %d, want 3", m.ToCSR().NNZ())
	}
}

func TestReadMatrixMarketSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate integer skew-symmetric
2 2 1
2 1 5
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToCSR().Dense()
	if d[1][0] != 5 || d[0][1] != -5 {
		t.Fatalf("skew mirror wrong: %v", d)
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToCSR().Dense()
	if d[0][1] != 1 || d[1][0] != 1 {
		t.Fatalf("pattern values wrong: %v", d)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage header\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n", // out of bounds
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n", // unparsable
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",   // missing value
	}
	for i, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted:\n%s", i, c)
		}
	}
}

// Property: write → read round trip preserves the dense expansion.
func TestQuickMatrixMarketRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCOO(rng, 10, 30)
		if m.Rows == 0 || m.Cols == 0 {
			return true
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			return false
		}
		got, err := ReadMatrixMarket(&buf)
		if err != nil {
			return false
		}
		return denseEq(denseOf(m), got.ToCSR().Dense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestParseMatrixMarketDimensionCap checks the size cap: a body may
// declare MaxDim rows and columns but not one more, so a short body
// cannot make a compression allocate a pointer array of any size.
func TestParseMatrixMarketDimensionCap(t *testing.T) {
	const hdr = "%%MatrixMarket matrix coordinate real general\n"
	m, err := ParseMatrixMarket(hdr + fmt.Sprintf("%d %d 1\n%d 1 2\n", MaxDim, MaxDim, MaxDim))
	if err != nil {
		t.Fatalf("body at the cap refused: %v", err)
	}
	if m.Rows != MaxDim || m.Cols != MaxDim || m.NNZ() != 1 || m.R[0] != MaxDim-1 {
		t.Fatalf("body at the cap parsed as %dx%d with %d entries", m.Rows, m.Cols, m.NNZ())
	}
	for _, size := range []string{
		fmt.Sprintf("%d 1 1", MaxDim+1),
		fmt.Sprintf("1 %d 1", MaxDim+1),
		"1099511627776 1099511627776 1",
	} {
		_, err := ParseMatrixMarket(hdr + size + "\n1 1 1\n")
		if !errors.Is(err, errTooLarge) {
			t.Errorf("size line %q: error %v, want the dimension cap", size, err)
		}
	}
}

// TestParseMatrixMarketPresizeBounded declares far more entries than the
// body holds: the parser must size its COO from the body, not from the
// declared count.
func TestParseMatrixMarketPresizeBounded(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 4194304\n1 1 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseMatrixMarket(in)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "expected 4194304 entries, got 1") {
		t.Fatalf("error %v, want a short-count error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("parsing a %d-byte body allocated %d bytes", len(in), n)
	}
}

// TestParseMatrixMarketAllocsFlat checks the parser allocates per body,
// not per entry: a hundredfold longer body costs no more allocations.
func TestParseMatrixMarketAllocsFlat(t *testing.T) {
	small, large := uploadBody(1, 200, 50), uploadBody(1, 2000, 5000)
	count := func(in string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseMatrixMarket(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := count(small), count(large); b > a {
		t.Errorf("allocations grew with the body: %v for 50 entries, %v for 5000", a, b)
	}
}

// uploadBody renders a seeded dim×dim uniform matrix of about nnz entries
// with values rounded to eighths, the form daemon uploads take.
func uploadBody(seed int64, dim, nnz int) string {
	m := Uniform(rand.New(rand.NewSource(seed)), dim, dim, nnz)
	for i, v := range m.V {
		m.V[i] = math.Round(v*8) / 8
	}
	var b strings.Builder
	if err := WriteMatrixMarket(&b, m); err != nil {
		panic(err)
	}
	return b.String()
}

// The microbenchmarks run on an upload shaped like a median job of the
// daemon-fresh benchmark workload: about 5,500 entries in 77 KB. Each has
// the reference as a sub-benchmark, so one run shows both sides.

func BenchmarkParseMatrixMarket(b *testing.B) {
	in := uploadBody(1, 2000, 5500)
	b.Run("parser", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseMatrixMarket(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceReadMatrixMarket(strings.NewReader(in)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCOOToCSC compresses three inputs. The median upload and the
// same entries in column-major order have distinct coordinates and take
// the bucket sort; the R-MAT dataset entry P1 (25,000 entries in random
// order, with repeats and hub columns) takes the comparison sort.
func BenchmarkCOOToCSC(b *testing.B) {
	upload, err := ParseMatrixMarket(uploadBody(1, 2000, 5500))
	if err != nil {
		b.Fatal(err)
	}
	colMajor := &COO{Rows: upload.Rows, Cols: upload.Cols,
		R: append([]int(nil), upload.R...), C: append([]int(nil), upload.C...), V: append([]float64(nil), upload.V...)}
	sort.Sort(cooOrder{colMajor, false})
	p1, err := Entry("P1")
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []namedCOO{
		{"median-upload", upload},
		{"column-major", colMajor},
		{"rmat-P1", p1.Generate(1, 1)},
	} {
		b.Run(in.name+"/compress", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.m.ToCSC()
			}
		})
		b.Run(in.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceCompressed(in.m, false)
			}
		})
	}
}
