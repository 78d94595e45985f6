package matrix

import (
	"bytes"
	"math"
	"testing"
)

// FuzzFormatConverters hardens the CSR/CSC/COO converters behind the
// widened Format axis. The raw bytes are decoded two ways: (1) directly
// into a CSR's index arrays — usually malformed (negative or decreasing
// pointers, out-of-bounds or unsorted columns, length mismatches), which
// Validate must reject without panicking; (2) into in-range COO
// coordinates — duplicates and empty rows/cols included — which must
// compress cleanly and round-trip bit-exactly through every format.
func FuzzFormatConverters(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{0, 1, 2, 2}, []byte{0, 1, 2, 0})
	f.Add(uint8(0), uint8(0), []byte{0}, []byte{})
	f.Add(uint8(2), uint8(2), []byte{0, 0, 0}, []byte{})           // all rows empty
	f.Add(uint8(2), uint8(2), []byte{0, 2, 1}, []byte{1, 0})       // decreasing pointer
	f.Add(uint8(2), uint8(2), []byte{0, 1, 2}, []byte{5, 1})       // column out of bounds
	f.Add(uint8(4), uint8(4), []byte{0, 2, 2, 2, 2}, []byte{1, 1}) // duplicate column
	// COO inputs compress picks its path on (an entry is a byte pair).
	f.Add(uint8(3), uint8(3), []byte{0}, []byte{0, 0, 0, 2, 1, 1, 2, 3, 3, 0})       // row-major
	f.Add(uint8(3), uint8(3), []byte{0}, []byte{0, 0, 3, 0, 1, 1, 0, 2, 2, 3})       // column-major
	f.Add(uint8(3), uint8(3), []byte{0}, []byte{2, 3, 0, 0, 3, 0, 1, 1, 0, 2})       // shuffled
	f.Add(uint8(3), uint8(3), []byte{0}, []byte{1, 1, 0, 0, 1, 1})                   // repeated 2 times
	f.Add(uint8(3), uint8(3), []byte{0}, []byte{1, 1, 0, 0, 1, 1, 2, 2, 1, 1})       // repeated 3 times
	f.Add(uint8(9), uint8(9), []byte{0}, []byte{1, 1, 5, 3, 9, 9, 7, 3, 8, 8, 3, 3}) // empty rows and columns
	f.Add(uint8(0), uint8(0), []byte{0}, []byte{0, 0})                               // 1×1
	hub := []byte{0, 1, 2, 0}
	for _, r := range []byte{17, 3, 30, 8, 25, 0, 12, 39, 21, 5, 34, 14, 28, 1, 19, 10, 36, 23, 6, 31} {
		hub = append(hub, r, 2)
	}
	f.Add(uint8(39), uint8(3), []byte{0}, hub)                // hub column
	f.Add(uint8(39), uint8(3), []byte{0}, append(hub, 10, 2)) // hub column with a repeat
	f.Fuzz(func(t *testing.T, rows, cols uint8, ptrBytes, idxBytes []byte) {
		r, c := int(rows%40), int(cols%40)

		// Malformed-array probe: Validate must classify, never panic.
		rowPtr := make([]int, len(ptrBytes))
		for i, b := range ptrBytes {
			rowPtr[i] = int(int8(b))
		}
		colIdx := make([]int, len(idxBytes))
		for i, b := range idxBytes {
			colIdx[i] = int(int8(b))
		}
		csr := &CSR{Rows: r, Cols: c, RowPtr: rowPtr, ColIdx: colIdx, Val: make([]float64, len(colIdx))}
		for i := range csr.Val {
			csr.Val[i] = float64(i + 1)
		}
		if err := csr.Validate(); err == nil {
			// Anything Validate accepts must convert and round-trip exactly.
			csc := csr.ToCSC()
			if verr := csc.Validate(); verr != nil {
				t.Fatalf("ToCSC of valid CSR fails Validate: %v", verr)
			}
			if !csc.ToCSR().Equal(csr, 0) {
				t.Fatal("CSR -> CSC -> CSR changed the matrix")
			}
			coo := csr.ToCOO()
			if verr := coo.Validate(); verr != nil {
				t.Fatalf("ToCOO of valid CSR fails Validate: %v", verr)
			}
			if !coo.ToCSR().Equal(csr, 0) {
				t.Fatal("CSR -> COO -> CSR changed the matrix")
			}
		}

		// In-range COO probe: duplicates sum, empty rows/cols survive, and
		// the row-major and column-major compressions agree.
		coo := NewCOO(r+1, c+1)
		for i := 0; i+1 < len(idxBytes); i += 2 {
			coo.Add(int(idxBytes[i])%(r+1), int(idxBytes[i+1])%(c+1), float64(i+1))
		}
		if err := coo.Validate(); err != nil {
			t.Fatalf("in-range COO rejected: %v", err)
		}
		viaRow := coo.ToCSR()
		if err := viaRow.Validate(); err != nil {
			t.Fatalf("COO.ToCSR invalid: %v", err)
		}
		viaCol := coo.ToCSC()
		if err := viaCol.Validate(); err != nil {
			t.Fatalf("COO.ToCSC invalid: %v", err)
		}
		if !viaCol.ToCSR().Equal(viaRow, 0) {
			t.Fatal("COO row-major and column-major compressions disagree")
		}
		if viaRow.NNZ() > coo.NNZ() {
			t.Fatalf("compression grew nnz: %d -> %d", coo.NNZ(), viaRow.NNZ())
		}

		// Summation-order probe: the same coordinates with inexact values
		// over nine orders of magnitude, whose duplicate sums change with
		// the order they are added in, must compress bit for bit as the
		// sort.Slice reference does.
		for i := range coo.V {
			coo.V[i] = math.Pow(10, float64(i%9-4)) / float64(i+3)
		}
		checkCompressAgainstReference(t, coo)

		// NaN probe: the same coordinates holding NaNs of both signs and
		// distinct payloads, whose sums keep the bits of the term added
		// first.
		for i := range coo.V {
			coo.V[i] = math.Float64frombits(0x7ff8000000000000 | uint64(i%2)<<63 | uint64(i+1))
		}
		checkCompressAgainstReference(t, coo)
	})
}

// FuzzParseMatrixMarket hardens the MatrixMarket reader against arbitrary
// input: it must never panic, it must give the same COO bits and the same
// error text as the reference reader, and anything it accepts must be a
// valid matrix that survives a write/read round-trip.
func FuzzParseMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n2 2 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer skew-symmetric\n4 4 1\n2 1 7\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e308\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 5 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 1 -2\r\n")
	f.Add("%%MatrixMarket matrix coordinate real general\r\r\n2 2 1\n1\t1\v0.5\u00a0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n010 0x10 1\n8 16 1e400\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 2\n2 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		m := checkParseAgainstReference(t, in)
		if m == nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted matrix fails Validate: %v\ninput: %q", verr, in)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("cannot re-write accepted matrix: %v\ninput: %q", err, in)
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("cannot re-read own output: %v\ninput: %q", err, in)
		}
		// The writer merges duplicate coordinates, so the round trip
		// equals the compressed matrix rather than the COO entry for entry.
		if !back.ToCSR().Equal(m.ToCSR(), 0) {
			t.Fatalf("round trip changed the matrix\ninput: %q", in)
		}
	})
}
