package matrix

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The references below are the MatrixMarket reader and the COO compression
// as they were before the one-pass parser and the typed sort. The package's
// parser and converters must agree with them bit for bit: the same COO
// entries in the same order with the same value bits and the same error
// text, and the same compressed arrays with the same duplicate sums.

// referenceReadMatrixMarket is the bufio.Scanner reader: one string per
// line, strings.Fields per entry and fmt.Sscan for the size line.
func referenceReadMatrixMarket(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrix: not a MatrixMarket header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("matrix: unsupported format %q (only coordinate)", header[2])
	}
	field := header[3]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrix: unsupported field %q", field)
	}
	sym := header[4]
	switch sym {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrix: unsupported symmetry %q", sym)
	}

	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("matrix: bad size line %q: %w", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("matrix: bad dimensions %dx%d", rows, cols)
	}

	out := NewCOO(rows, cols)
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("matrix: bad entry %q", line)
		}
		r1, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad row in %q: %w", line, err)
		}
		c1, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad col in %q: %w", line, err)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("matrix: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: bad value in %q: %w", line, err)
			}
		}
		ri, ci := r1-1, c1-1
		if ri < 0 || ri >= rows || ci < 0 || ci >= cols {
			return nil, fmt.Errorf("matrix: entry (%d,%d) outside %dx%d", r1, c1, rows, cols)
		}
		out.Add(ri, ci, v)
		switch sym {
		case "symmetric":
			if ri != ci {
				out.Add(ci, ri, v)
			}
		case "skew-symmetric":
			if ri != ci {
				out.Add(ci, ri, -v)
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
	}
	return out, nil
}

type refEntry struct {
	r, c int
	v    float64
}

// referenceCompress sorts with sort.Slice and its (major, minor) less,
// then sums duplicates in the sorted order.
func referenceCompress(m *COO, rowMajor bool) []refEntry {
	es := make([]refEntry, len(m.V))
	for i := range m.V {
		es[i] = refEntry{m.R[i], m.C[i], m.V[i]}
	}
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if rowMajor {
			if a.r != b.r {
				return a.r < b.r
			}
			return a.c < b.c
		}
		if a.c != b.c {
			return a.c < b.c
		}
		return a.r < b.r
	})
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].r == e.r && out[n-1].c == e.c {
			out[n-1].v += e.v
			continue
		}
		out = append(out, e)
	}
	return out
}

// referenceCompressed returns the pointer, index and value arrays of m's
// row-major (CSR) or column-major (CSC) form, built from referenceCompress.
func referenceCompressed(m *COO, rowMajor bool) (ptr, idx []int, val []float64) {
	major := m.Cols
	if rowMajor {
		major = m.Rows
	}
	es := referenceCompress(m, rowMajor)
	ptr = make([]int, major+1)
	idx = make([]int, len(es))
	val = make([]float64, len(es))
	for i, e := range es {
		maj, minor := e.c, e.r
		if rowMajor {
			maj, minor = e.r, e.c
		}
		ptr[maj+1]++
		idx[i] = minor
		val[i] = e.v
	}
	for k := 0; k < major; k++ {
		ptr[k+1] += ptr[k]
	}
	return ptr, idx, val
}

// sameBits reports whether two compressed forms are identical, values
// compared by their bits.
func sameBits(ptrA, idxA []int, valA []float64, ptrB, idxB []int, valB []float64) bool {
	if len(ptrA) != len(ptrB) || len(idxA) != len(idxB) || len(valA) != len(valB) {
		return false
	}
	for i := range ptrA {
		if ptrA[i] != ptrB[i] {
			return false
		}
	}
	for i := range idxA {
		if idxA[i] != idxB[i] || math.Float64bits(valA[i]) != math.Float64bits(valB[i]) {
			return false
		}
	}
	return true
}

// checkCompressAgainstReference fails t unless ToCSR and ToCSC of m equal
// the reference compression bit for bit.
func checkCompressAgainstReference(t *testing.T, m *COO) {
	t.Helper()
	checkCSRAgainstReference(t, m)
	checkCSCAgainstReference(t, m)
}

func checkCSRAgainstReference(t *testing.T, m *COO) {
	t.Helper()
	csr := m.ToCSR()
	ptr, idx, val := referenceCompressed(m, true)
	if !sameBits(csr.RowPtr, csr.ColIdx, csr.Val, ptr, idx, val) {
		t.Fatalf("ToCSR differs from the sort.Slice reference on %d entries %dx%d", m.NNZ(), m.Rows, m.Cols)
	}
}

func checkCSCAgainstReference(t *testing.T, m *COO) {
	t.Helper()
	csc := m.ToCSC()
	ptr, idx, val := referenceCompressed(m, false)
	if !sameBits(csc.ColPtr, csc.RowIdx, csc.Val, ptr, idx, val) {
		t.Fatalf("ToCSC differs from the sort.Slice reference on %d entries %dx%d", m.NNZ(), m.Rows, m.Cols)
	}
}

// dupHeavyCOO draws a small matrix whose few coordinates each repeat many
// times, with inexact values spread over 16 orders of magnitude, so a
// duplicate sum changes with the order its terms are added in. Some
// matrices come presorted or reversed, the patterns pdqsort detects.
func dupHeavyCOO(rng *rand.Rand) *COO {
	rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
	m := NewCOO(rows, cols)
	n := rng.Intn(600)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
		m.Add(rng.Intn(rows), rng.Intn(cols), v)
	}
	switch rng.Intn(4) {
	case 0:
		sort.Sort(cooOrder{m, rng.Intn(2) == 0})
	case 1:
		sort.Sort(sort.Reverse(cooOrder{m, rng.Intn(2) == 0}))
	}
	return m
}

// cooOrder sorts a COO's entries in row- or column-major order, for
// building presorted inputs.
type cooOrder struct {
	m        *COO
	rowMajor bool
}

func (o cooOrder) Len() int { return o.m.NNZ() }
func (o cooOrder) Less(i, j int) bool {
	ai, aj, bi, bj := o.m.R[i], o.m.C[i], o.m.R[j], o.m.C[j]
	if !o.rowMajor {
		ai, aj, bi, bj = aj, ai, bj, bi
	}
	if ai != bi {
		return ai < bi
	}
	return aj < bj
}
func (o cooOrder) Swap(i, j int) {
	o.m.R[i], o.m.R[j] = o.m.R[j], o.m.R[i]
	o.m.C[i], o.m.C[j] = o.m.C[j], o.m.C[i]
	o.m.V[i], o.m.V[j] = o.m.V[j], o.m.V[i]
}

// TestCompressMatchesReference fences the COO sort: over matrices full of
// three-fold and larger duplicates with inexact values, ToCSR and ToCSC
// must sum every duplicate in the order the sort.Slice reference does. A
// stable sort, or a counting sort over repeated coordinates, adds a run
// in input order and fails here. The crafted inputs are the ones
// compress picks its path on: distinct coordinates in every order take
// the bucket sort, one repeat anywhere the comparison sort.
func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		checkCompressAgainstReference(t, dupHeavyCOO(rng))
	}
	// Wider matrices with fewer repeats, as real uploads have.
	for i := 0; i < 200; i++ {
		m := randomCOO(rng, 60, 2000)
		for k := range m.V {
			m.V[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
		}
		checkCompressAgainstReference(t, m)
	}
	for _, c := range compressCases(rng) {
		t.Run(c.name, func(t *testing.T) { checkCompressAgainstReference(t, c.m) })
	}
	// A MaxDim-wide matrix compressed by row, and a MaxDim-tall one by
	// column: the minor dimension is MaxDim, and compress allocates
	// nothing sized by it.
	wide := NewCOO(3, MaxDim)
	for _, c := range []int{MaxDim - 1, 0, 77, MaxDim / 2} {
		wide.Add(rng.Intn(3), c, inexact(rng))
	}
	tall := &COO{Rows: MaxDim, Cols: 3, R: wide.C, C: wide.R, V: wide.V}
	wideRepeat := shuffled(rng, wide)
	wideRepeat.Add(wide.R[0], wide.C[0], inexact(rng))
	for name, check := range map[string]func(){
		"wide/csr":        func() { checkCSRAgainstReference(t, wide) },
		"wide/repeat/csr": func() { checkCSRAgainstReference(t, wideRepeat) },
		"tall/csc":        func() { checkCSCAgainstReference(t, tall) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		check()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: compressing 4 entries with minor dimension MaxDim allocated %d bytes", name, n)
		}
	}
}

// inexact draws a value spread over 16 orders of magnitude, so sums of
// three or more change with the order their terms are added in.
func inexact(rng *rand.Rand) float64 {
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
}

// distinctCOO draws a rows×cols matrix of n entries at distinct
// coordinates with inexact values, in row-major order.
func distinctCOO(rng *rand.Rand, rows, cols, n int) *COO {
	m := NewCOO(rows, cols)
	for _, k := range rng.Perm(rows * cols)[:n] {
		m.Add(k/cols, k%cols, inexact(rng))
	}
	sort.Sort(cooOrder{m, true})
	return m
}

// shuffled returns m's entries in a random order.
func shuffled(rng *rand.Rand, m *COO) *COO {
	out := &COO{Rows: m.Rows, Cols: m.Cols,
		R: append([]int(nil), m.R...), C: append([]int(nil), m.C...), V: append([]float64(nil), m.V...)}
	rng.Shuffle(out.NNZ(), cooOrder{out, true}.Swap)
	return out
}

type namedCOO struct {
	name string
	m    *COO
}

// compressCases are the inputs compress decides its path on.
func compressCases(rng *rand.Rand) []namedCOO {
	rowMajor := distinctCOO(rng, 40, 30, 500)
	colMajor := shuffled(rng, rowMajor)
	sort.Sort(cooOrder{colMajor, false})
	cases := []namedCOO{
		{"distinct/row-major", rowMajor},
		{"distinct/column-major", colMajor},
		{"distinct/shuffled", shuffled(rng, rowMajor)},
	}
	add := func(name string, m *COO) { cases = append(cases, namedCOO{name, m}) }
	// One coordinate repeated 2 and 3 times, early and late in the
	// major order, with inexact sums.
	for _, times := range []int{2, 3} {
		for _, at := range []int{0, rowMajor.NNZ() - 1} {
			m := shuffled(rng, rowMajor)
			for k := 1; k < times; k++ {
				m.Add(rowMajor.R[at], rowMajor.C[at], inexact(rng))
			}
			add(fmt.Sprintf("repeat-%d/entry-%d", times, at), shuffled(rng, m))
		}
	}
	// Repeated coordinates holding NaNs of both signs and different
	// payloads: a NaN sum keeps the bits of the term added first.
	nans := shuffled(rng, rowMajor)
	for k, bits := range []uint64{0x7ff8000000000001, 0xfff8000000000002, 0x7ff8000000000003} {
		nans.Add(3, 4, math.Float64frombits(bits))
		if k < 2 {
			nans.Add(5, 6, math.Float64frombits(bits^0x8000000000000000))
		}
	}
	add("repeat-nan", shuffled(rng, nans))
	// One hub column holding most of the entries, more than an
	// insertion-sorted bucket takes, in random order; its transpose is a
	// hub row. A repeat in the hub shows only once its bucket is sorted.
	hub := NewCOO(300, 50)
	hubRows := rng.Perm(300)[:250]
	for _, r := range hubRows {
		hub.Add(r, 7, inexact(rng))
	}
	for _, k := range rng.Perm(300 * 49)[:60] {
		c := k % 49
		if c >= 7 {
			c++
		}
		hub.Add(k/49, c, inexact(rng))
	}
	hub = shuffled(rng, hub)
	add("hub-column", hub)
	add("hub-row", &COO{Rows: hub.Cols, Cols: hub.Rows, R: hub.C, C: hub.R, V: hub.V})
	hubRepeat := shuffled(rng, hub)
	hubRepeat.Add(hubRows[100], 7, inexact(rng))
	add("hub-column/repeat", shuffled(rng, hubRepeat))
	// Empty rows and columns, the first and last among them.
	gaps := NewCOO(50, 40)
	for _, k := range rng.Perm(25 * 20)[:100] {
		gaps.Add(2*(k/20), 2*(k%20)+1, inexact(rng))
	}
	add("empty-rows-and-columns", shuffled(rng, gaps))
	add("1x1/empty", NewCOO(1, 1))
	one := NewCOO(1, 1)
	one.Add(0, 0, inexact(rng))
	add("1x1", one)
	three := NewCOO(1, 1)
	for k := 0; k < 3; k++ {
		three.Add(0, 0, inexact(rng))
	}
	add("1x1/repeat-3", three)
	return cases
}

// sameCOO reports whether two COO matrices hold the same entries in the
// same order, values compared by their bits.
func sameCOO(a, b *COO) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.R) != len(b.R) || len(a.C) != len(b.C) || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.R {
		if a.R[i] != b.R[i] || a.C[i] != b.C[i] || math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// checkParseAgainstReference fails t unless ParseMatrixMarket and
// ReadMatrixMarket give in the same COO bits and the same error text as
// the reference, and returns the matrix they accepted, if any. Past
// MaxDim they must refuse what the reference would go on to read.
func checkParseAgainstReference(t *testing.T, in string) *COO {
	t.Helper()
	want, werr := referenceReadMatrixMarket(strings.NewReader(in))
	got, err := ParseMatrixMarket(in)
	read, rerr := ReadMatrixMarket(strings.NewReader(in))
	switch {
	case (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() || err == nil && !sameCOO(got, read):
		t.Fatalf("ReadMatrixMarket (%v) and ParseMatrixMarket (%v) disagree\ninput: %.300q", rerr, err, in)
	case errors.Is(err, errTooLarge):
		if werr == nil && want.Rows <= MaxDim && want.Cols <= MaxDim {
			t.Fatalf("parser refused a %dx%d matrix within the cap: %v", want.Rows, want.Cols, err)
		}
	case (err == nil) != (werr == nil):
		t.Fatalf("parser error %v, reference error %v\ninput: %.300q", err, werr, in)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("parser error %q, reference error %q\ninput: %.300q", err, werr, in)
	case err == nil && !sameCOO(got, want):
		t.Fatalf("parser COO differs from the reference\ninput: %.300q", in)
	}
	return got
}

// randomBody draws a MatrixMarket body that is mostly well formed but
// mixes in what a reader must get exactly right: CRLF and other ASCII
// whitespace, Unicode spaces and invalid UTF-8, comments and blank lines,
// signs, exotic floats and integers, bad tokens, extra and missing fields,
// out-of-range entries, wrong counts and a missing final newline.
func randomBody(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	sep := func() string {
		if rng.Intn(8) > 0 {
			return " "
		}
		return pick("\t", "  ", " \t ", "\v", "\f", "\r", "\u00a0", "\u2003", "\x85", "\u0085", ",")
	}
	pad := func() string {
		if rng.Intn(6) > 0 {
			return ""
		}
		return pick(" ", "\t", "\r", " \r", "\u00a0", "\u3000", "\xff")
	}
	nl := func() string { return pick("\n", "\n", "\n", "\r\n", "\r\r\n") }
	var b strings.Builder
	field := pick("real", "real", "integer", "pattern", "complex", "REAL")
	header := "%%MatrixMarket" + sep() + pick("matrix", "Matrix", "vector") + sep() +
		pick("coordinate", "coordinate", "array") + sep() + field + sep() +
		pick("general", "general", "symmetric", "skew-symmetric", "hermitian")
	switch rng.Intn(20) {
	case 0:
		header = pick("", "garbage header", "%%MatrixMarket matrix", "\u00a0%%MatrixMarket matrix coordinate real general")
	case 1:
		header += " extra"
	}
	b.WriteString(header + nl())
	for k := rng.Intn(3); k > 0; k-- {
		b.WriteString(pad() + pick("% comment", "", "%", "  % indented") + nl())
	}
	rows, cols := 1+rng.Intn(9), 1+rng.Intn(9)
	nnz := rng.Intn(12)
	num := func(v int) string {
		switch rng.Intn(25) {
		case 0:
			return "+" + strconv.Itoa(v)
		case 1:
			return "0" + strconv.Itoa(v)
		case 2:
			return "0x" + strconv.FormatInt(int64(v), 16)
		case 3:
			return strconv.Itoa(-v)
		case 4:
			return pick("x", "1.5", "", "99999999999999999999", "1_0", "0b11")
		}
		return strconv.Itoa(v)
	}
	b.WriteString(pad() + num(rows) + sep() + num(cols) + sep() + num(nnz) + pad())
	if rng.Intn(10) == 0 {
		b.WriteString(sep() + pick("7", "junk"))
	}
	b.WriteString(nl())
	value := func() string {
		switch rng.Intn(12) {
		case 0:
			return pick("nan", "NaN", "inf", "-Inf", "+infinity", "1e400", "-1e-400", "0x1p-3", "1_000", ".5", "-.5e1", "5.", "1e", "--1", "0x", "\u0663")
		case 1:
			return strconv.Itoa(rng.Intn(100) - 50)
		}
		return strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)), 'g', -1, 64)
	}
	entries := nnz + rng.Intn(3) - 1
	for k := 0; k < entries; k++ {
		if rng.Intn(10) == 0 {
			b.WriteString(pad() + pick("% mid comment", "", "%x") + nl())
		}
		r, c := 1+rng.Intn(rows), 1+rng.Intn(cols)
		if rng.Intn(30) == 0 {
			r = rows + 1
		}
		line := num(r) + sep() + num(c)
		switch rng.Intn(15) {
		case 0: // the value missing
		case 1:
			line += sep() + value() + sep() + value()
		default:
			line += sep() + value()
		}
		if rng.Intn(20) == 0 {
			line = pick("1", "x", "1 1 1 1", "")
		}
		b.WriteString(pad() + line + pad())
		if k < entries-1 || rng.Intn(3) > 0 {
			b.WriteString(nl())
		}
	}
	if rng.Intn(8) == 0 {
		b.WriteString(pick("trailing garbage\n", "1 1 1\n", "%\n"))
	}
	return b.String()
}

// TestParseMatchesReference fences the MatrixMarket reader against the
// reference on crafted bodies (every error path, CRLF, Unicode spaces,
// fmt.Sscan's integer forms in the size line, the 1 MiB line limit at each
// stage of the stream) and on seeded random bodies.
func TestParseMatchesReference(t *testing.T) {
	const hdr = "%%MatrixMarket matrix coordinate real general\n"
	long := strings.Repeat("x", 1<<20)
	cases := []string{
		"", "\n", "\r\n", "garbage\r\n", "garbage\r\r\n", "garbage\r",
		hdr, hdr + "\n\n", hdr + "% only comments\n",
		hdr + "3 3 2\r\n1 1 1.5\r\n3 2 -2\r\n",
		hdr + "3 3 2\n1\t1\v1.5\f\n 3  2  -2 \n",
		hdr + "3 3 2\n1\u00a01 1.5\n3 2 -2\n",
		hdr + "3 3 2\n1 1\u00a01.5\n3 2 -2\n",
		hdr + "3 3 2\n1 1 1.5\u2003\n3 2 -2\n",
		hdr + "3 3 2\n1 1 1.5\xff\n3 2 -2\n",
		hdr + "3 3 2\n\u00851 1 1.5\n3 2 -2\n",
		hdr + "3\u00a03 2\n1 1 1.5\n3 2 -2\n",
		hdr + "010 0x10 0b11\n1 1 1\n8 16 2\n3 3 3\n",
		hdr + "1_0 1_0 1\n1 1 1\n",
		hdr + "+3 -3 1\n",
		hdr + "3 3\n",
		hdr + "3 3 1 junk\n1 1 1\n",
		hdr + "3,3,1\n1 1 1\n",
		hdr + "99999999999999999999 1 1\n",
		// Around the plain-decimal size line fmt.Sscan is skipped for:
		// zero, leading zeros, 18 and 19 digits, a suffix on a field.
		hdr + "0 3 1\n",
		hdr + "00 3 1\n1 1 1\n",
		hdr + "3 03 1\n1 1 1\n",
		hdr + "999999999999999999 1 1\n",
		hdr + "1000000000000000000 1 1\n",
		hdr + "3 3 1x\n1 1 1\n",
		hdr + "3\t3\v1 +1\n1 1 1\n",
		hdr + "3 3 -1\n",
		hdr + "3 3 0\nx y z\n",
		hdr + "3 3 1\n1 1 nan\n",
		hdr + "3 3 1\n1 1 1e400\n",
		hdr + "3 3 1\n1 1 0x1p-3\n",
		hdr + "3 3 1\n+1 01 -0\n",
		hdr + "3 3 1\n1 1 1 extra fields\n",
		hdr + "3 3 1\n1 1 1",
		hdr + "3 3 1\n1 1 1\r",
		hdr + "3 3 2\n1 1 1\n",
		hdr + "3 3 1\n4 1 1\n",
		hdr + "3 3 1\n0 1 1\n",
		hdr + "3 3 1\n1\n",
		hdr + "3 3 1\n1 1\n",
		hdr + "3 3 1\n1 x 1\n",
		hdr + "3 3 1\n99999999999999999999 1 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 2\n2 1\n3 3 7\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 2\n2 1 7\n4 4 1\n",
		"%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 2\n",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real\n1 1 1\n",
		"%%MatrixMarket\u00a0matrix coordinate real general\n1 1 1\n1 1 1\n",
		// The 1 MiB line limit: a line of 1<<20 bytes (newline excluded)
		// is too long, one byte less is not, in every part of the stream.
		long,
		long[1:] + "\n",
		hdr + long + "\n3 3 0\n",
		hdr + "% " + long[2:] + "\n3 3 0\n",
		hdr + "% " + long[3:] + "\n3 3 0\n",
		hdr + "3 3 1\n" + long + "\n",
		hdr + "3 3 1\n1 1 1\n" + long,
		hdr + "3 3 1\n1 1 1\n" + long[1:],
		hdr + "3 3 0\n" + long + "\n",
		hdr + "3 3 1\n1 1 1 " + long[6:] + "\n",
		hdr + "3 3 1\n1 1 1 " + long[7:] + "\r\n",
	}
	for _, in := range cases {
		checkParseAgainstReference(t, in)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		checkParseAgainstReference(t, randomBody(rng))
	}
}
