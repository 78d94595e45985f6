// Package kernels implements the paper's sparse linear algebra workloads on
// the Transmuter machine model: SpMSpM in three dataflow formulations —
// outer-product (the OuterSPACE algorithm of Pal et al., with its two
// explicit phases, multiply and merge), compressed inner-product, and
// row-wise (Gustavson) — and SpMSpV (whose multiply and merge proceed in
// tandem, Section 5.1). Each kernel executes functionally — producing the
// real result, which tests verify against dense references — while
// emitting the instruction/access trace the sim.Machine replays under
// arbitrary hardware configurations.
//
// The dataflow, the A operand's storage format and the LCP scheduling
// policy are runtime action axes (config.Dataflow/Format/SchedPolicy); a
// Source caches the per-variant traces of one operand set so the
// controller, oracle and trainer can switch between them mid-run.
package kernels

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sim"
)

// Epoch sizes used in the paper's evaluation (Section 5.4): FP-ops per GPE
// per control epoch.
const (
	EpochSpMSpM = 5000
	EpochSpMSpV = 500
)

// Static instruction IDs (PCs) for the prefetcher's index table. PC 0 is
// reserved for non-demand traffic.
const (
	pcAColPtr = iota + 1
	pcARowIdx
	pcAVal
	pcBRowPtr
	pcBColIdx
	pcBVal
	pcPPWrite
	pcPPRead
	pcAcc
	pcOut
	pcXIdx
	pcXVal
	pcQueue
	pcAFmt // extra index traffic when A's stored format is not the natural one
)

// sizes of scalar elements in the traced address space.
const (
	fBytes = 8 // float64
	iBytes = 4 // int32 index
)

// Workload bundles a kernel execution: its trace, the paper's epoch size
// for it, and a short name for reports.
type Workload struct {
	Name       string
	Trace      *sim.Trace
	EpochFPOps int
}

// Epochs segments the workload's trace with its kernel-appropriate epoch
// size, optionally scaled (scale 1 = paper's epoch size).
func (w Workload) Epochs(scale float64) []sim.EpochRange {
	n := int(float64(w.EpochFPOps) * scale)
	if n < 10 {
		n = 10
	}
	return w.Trace.Epochs(n)
}

// fmtOverlay models the extra index traffic of consuming the A operand
// through a storage format other than the dataflow's natural orientation:
// the opposite compressed format costs one extra index load per element
// (chasing the transposed index structure), COO costs two (both explicit
// coordinates). The natural format has no overlay and leaves the trace
// byte-identical to the pre-widening kernels.
type fmtOverlay struct {
	loads int
	reg   sim.Region
}

// newOverlay allocates the overlay's index region on tb when the stored
// format differs from the natural one.
func newOverlay(tb *sim.Builder, stored, natural, nnz int) fmtOverlay {
	var ov fmtOverlay
	switch {
	case stored == natural:
		return ov
	case stored == config.FmtCOO:
		ov.loads = 2
	default:
		ov.loads = 1
	}
	ov.reg = tb.AllocRegion("A.fmt-index", maxInt(nnz, 1)*ov.loads*iBytes, sim.RegionStream, 9)
	return ov
}

// touch emits the overlay's extra index loads for one access to A element
// elem (0 ≤ elem < nnz).
func (o fmtOverlay) touch(tb *sim.Builder, elem int) {
	for k := 0; k < o.loads; k++ {
		tb.LoadI(pcAFmt, o.reg.Lo+uint32((elem*o.loads+k)*iBytes))
	}
}

// pp is one partial product (multiply-phase output) awaiting the merge.
type pp struct {
	col int
	val float64
}

// SpMSpM computes C = A·B with the outer-product algorithm and returns the
// result plus the execution trace for a machine with nGPE worker cores and
// nLCP control processors. Work units are distributed round-robin; use
// SpMSpMSched for a different LCP scheduling policy.
//
// Multiply phase: for every k, the outer product of column k of A (CSC)
// with row k of B (CSR) appends partial products to per-output-row lists.
// Merge phase: each output row's partial products are sorted and combined.
// The LCPs' scheduling activity is traced too.
func SpMSpM(a *matrix.CSC, b *matrix.CSR, nGPE, nLCP int) (*matrix.CSR, Workload, error) {
	return SpMSpMSched(a, b, nGPE, nLCP, NewRoundRobin(nGPE))
}

// SpMSpMSched is SpMSpM with an explicit LCP work-scheduling policy.
func SpMSpMSched(a *matrix.CSC, b *matrix.CSR, nGPE, nLCP int, sched Scheduler) (*matrix.CSR, Workload, error) {
	return spmspmOuter(a, b, nGPE, nLCP, sched, config.FmtCSC)
}

// spmspmOuter is the outer-product implementation with the A operand
// stored in format aFmt (natural: CSC; other formats add overlay index
// traffic on every A element access).
func spmspmOuter(a *matrix.CSC, b *matrix.CSR, nGPE, nLCP int, sched Scheduler, aFmt int) (*matrix.CSR, Workload, error) {
	if a.Cols != b.Rows {
		return nil, Workload{}, fmt.Errorf("kernels: SpMSpM shape mismatch: A is %dx%d, B is %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	tb := sim.NewBuilder(nGPE, nLCP)
	tb.SetNNZ(a.NNZ())

	// Data layout. Inputs stream; partial-product lists are written in
	// multiply and re-read in merge (the read-modify-write structures of
	// Section 5.2); per-GPE sort scratch is the hottest reuse region.
	regAPtr := tb.AllocRegion("A.colptr", (a.Cols+1)*iBytes, sim.RegionStream, 9)
	regAIdx := tb.AllocRegion("A.rowidx", a.NNZ()*iBytes, sim.RegionStream, 9)
	regAVal := tb.AllocRegion("A.val", a.NNZ()*fBytes, sim.RegionStream, 9)
	regBPtr := tb.AllocRegion("B.rowptr", (b.Rows+1)*iBytes, sim.RegionStream, 9)
	regBIdx := tb.AllocRegion("B.colidx", b.NNZ()*iBytes, sim.RegionStream, 9)
	regBVal := tb.AllocRegion("B.val", b.NNZ()*fBytes, sim.RegionStream, 9)

	// Estimate partial-product volume for layout.
	nPP := 0
	for k := 0; k < a.Cols; k++ {
		ca := a.ColPtr[k+1] - a.ColPtr[k]
		cb := b.RowPtr[k+1] - b.RowPtr[k]
		nPP += ca * cb
	}
	regPP := tb.AllocRegion("partials", maxInt(nPP, 1)*(fBytes+iBytes+4), sim.RegionReuse, 2)
	regScratch := tb.AllocRegion("merge-scratch", nGPE*4096, sim.RegionReuse, 0)
	regQueue := tb.AllocRegion("work-queue", 4096, sim.RegionBookkeep, 1)
	regOut := tb.AllocRegion("C", maxInt(nPP, 1)*(fBytes+iBytes+4), sim.RegionStream, 9)
	ov := newOverlay(tb, aFmt, config.FmtCSC, a.NNZ())

	rows := make([][]pp, a.Rows)
	ppCursor := 0 // element index into the partial-product region

	// ---- Multiply phase ----
	tb.Phase("multiply")
	sched.Reset()
	lcp := func(unit int) int { return nGPE + (unit % nLCP) }
	for k := 0; k < a.Cols; k++ {
		ca := a.ColPtr[k+1] - a.ColPtr[k]
		cb := b.RowPtr[k+1] - b.RowPtr[k]
		g := sched.Assign(ca * cb)
		// LCP schedules the work unit.
		tb.On(lcp(k))
		tb.Int(2)
		tb.StoreI(pcQueue, regQueue.Lo+uint32((k%256)*iBytes))

		tb.On(g)
		tb.LoadI(pcAColPtr, regAPtr.Lo+uint32(k*iBytes))
		tb.LoadI(pcAColPtr, regAPtr.Lo+uint32((k+1)*iBytes))
		tb.LoadI(pcBRowPtr, regBPtr.Lo+uint32(k*iBytes))
		tb.LoadI(pcBRowPtr, regBPtr.Lo+uint32((k+1)*iBytes))
		aRows, aVals := a.Col(k)
		bCols, bVals := b.Row(k)
		if len(aRows) == 0 || len(bCols) == 0 {
			tb.Int(1)
			continue
		}
		for ai, r := range aRows {
			aOff := a.ColPtr[k] + ai
			tb.LoadI(pcARowIdx, regAIdx.Lo+uint32(aOff*iBytes))
			tb.LoadF(pcAVal, regAVal.Lo+uint32(aOff*fBytes))
			ov.touch(tb, aOff)
			av := aVals[ai]
			for bi, c := range bCols {
				bOff := b.RowPtr[k] + bi
				tb.LoadI(pcBColIdx, regBIdx.Lo+uint32(bOff*iBytes))
				tb.LoadF(pcBVal, regBVal.Lo+uint32(bOff*fBytes))
				tb.FP(1) // multiply
				// Append (c, av*bv) to row r's partial list.
				tb.StoreF(pcPPWrite, regPP.Lo+uint32(ppCursor*16))
				tb.StoreI(pcPPWrite, regPP.Lo+uint32(ppCursor*16+fBytes))
				tb.Int(1) // list bookkeeping
				rows[r] = append(rows[r], pp{col: c, val: av * bVals[bi]})
				ppCursor++
			}
		}
	}

	// ---- Merge phase ----
	tb.Phase("merge")
	sched.Reset()
	out := matrix.NewCOO(a.Rows, b.Cols)
	ppRead := 0
	for r := 0; r < a.Rows; r++ {
		list := rows[r]
		if len(list) == 0 {
			continue
		}
		g := sched.Assign(len(list))
		tb.On(lcp(r))
		tb.Int(2)
		tb.StoreI(pcQueue, regQueue.Lo+uint32((r%256)*iBytes))

		tb.On(g)
		// Load the row's partial products into scratch.
		for range list {
			tb.LoadF(pcPPRead, regPP.Lo+uint32(ppRead*16))
			tb.LoadI(pcPPRead, regPP.Lo+uint32(ppRead*16+fBytes))
			ppRead++
		}
		// Sort cost: ~n·log₂n integer compare/swap, touching scratch.
		n := len(list)
		logn := 1
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		for i := 0; i < n; i++ {
			tb.LoadI(pcAcc, regScratch.Lo+uint32((g*4096+(i*8)%4000)))
			tb.Int(logn)
		}
		// Combine duplicates and emit the merged row.
		merged := mergeRow(list)
		dups := n - len(merged)
		tb.FP(dups) // one add per combined duplicate
		for i, e := range merged {
			tb.StoreF(pcOut, regOut.Lo+uint32((ppRead-n+i)*16))
			tb.StoreI(pcOut, regOut.Lo+uint32((ppRead-n+i)*16+fBytes))
			out.Add(r, e.col, e.val)
		}
	}

	w := Workload{Name: "spmspm", Trace: tb.Build(), EpochFPOps: EpochSpMSpM}
	return out.ToCSR(), w, nil
}

// mergeRow sorts partial products by column and sums duplicates.
func mergeRow(list []pp) []pp {
	sorted := make([]pp, len(list))
	copy(sorted, list)
	quickSortPP(sorted)
	out := sorted[:0]
	for _, e := range sorted {
		if n := len(out); n > 0 && out[n-1].col == e.col {
			out[n-1].val += e.val
			continue
		}
		out = append(out, e)
	}
	return out
}

func quickSortPP(s []pp) {
	if len(s) < 2 {
		return
	}
	pivot := s[len(s)/2].col
	i, j := 0, len(s)-1
	for i <= j {
		for s[i].col < pivot {
			i++
		}
		for s[j].col > pivot {
			j--
		}
		if i <= j {
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
	}
	quickSortPP(s[:j+1])
	quickSortPP(s[i:])
}

// SpMSpV computes y = A·x for CSC A and sparse x. Multiply and merge happen
// in tandem (Section 5.1): each nonzero of x scales a column of A into a
// shared sparse accumulator, which is the kernel's hot reuse structure.
// Work units are distributed round-robin; use SpMSpVSched for a different
// LCP scheduling policy.
func SpMSpV(a *matrix.CSC, x *matrix.SparseVec, nGPE, nLCP int) (*matrix.SparseVec, Workload, error) {
	return SpMSpVSched(a, x, nGPE, nLCP, NewRoundRobin(nGPE))
}

// SpMSpVSched is SpMSpV with an explicit LCP work-scheduling policy.
func SpMSpVSched(a *matrix.CSC, x *matrix.SparseVec, nGPE, nLCP int, sched Scheduler) (*matrix.SparseVec, Workload, error) {
	return spmspv(a, x, nGPE, nLCP, sched, config.FmtCSC)
}

// spmspv is the implementation with the A operand stored in format aFmt
// (natural: CSC).
func spmspv(a *matrix.CSC, x *matrix.SparseVec, nGPE, nLCP int, sched Scheduler, aFmt int) (*matrix.SparseVec, Workload, error) {
	if a.Cols != x.N {
		return nil, Workload{}, fmt.Errorf("kernels: SpMSpV shape mismatch: A is %dx%d, x has %d entries", a.Rows, a.Cols, x.N)
	}
	tb := sim.NewBuilder(nGPE, nLCP)
	tb.SetNNZ(a.NNZ())

	regAPtr := tb.AllocRegion("A.colptr", (a.Cols+1)*iBytes, sim.RegionStream, 9)
	regAIdx := tb.AllocRegion("A.rowidx", a.NNZ()*iBytes, sim.RegionStream, 9)
	regAVal := tb.AllocRegion("A.val", a.NNZ()*fBytes, sim.RegionStream, 9)
	regXIdx := tb.AllocRegion("x.idx", maxInt(x.NNZ(), 1)*iBytes, sim.RegionStream, 3)
	regXVal := tb.AllocRegion("x.val", maxInt(x.NNZ(), 1)*fBytes, sim.RegionStream, 3)
	regAcc := tb.AllocRegion("accumulator", a.Rows*fBytes, sim.RegionReuse, 0)
	regQueue := tb.AllocRegion("work-queue", 4096, sim.RegionBookkeep, 1)
	regOut := tb.AllocRegion("y", a.Rows*(fBytes+iBytes), sim.RegionStream, 9)
	ov := newOverlay(tb, aFmt, config.FmtCSC, a.NNZ())

	acc := make([]float64, a.Rows)
	touched := make([]bool, a.Rows)

	tb.Phase("spmspv")
	sched.Reset()
	lcp := func(unit int) int { return nGPE + (unit % nLCP) }
	for xi, j := range x.Idx {
		g := sched.Assign(a.ColPtr[j+1] - a.ColPtr[j])
		tb.On(lcp(xi))
		tb.Int(2)
		tb.StoreI(pcQueue, regQueue.Lo+uint32((xi%256)*iBytes))

		tb.On(g)
		tb.LoadI(pcXIdx, regXIdx.Lo+uint32(xi*iBytes))
		tb.LoadF(pcXVal, regXVal.Lo+uint32(xi*fBytes))
		tb.LoadI(pcAColPtr, regAPtr.Lo+uint32(j*iBytes))
		tb.LoadI(pcAColPtr, regAPtr.Lo+uint32((j+1)*iBytes))
		xv := x.Val[xi]
		rowsJ, valsJ := a.Col(j)
		for ai, r := range rowsJ {
			off := a.ColPtr[j] + ai
			tb.LoadI(pcARowIdx, regAIdx.Lo+uint32(off*iBytes))
			tb.LoadF(pcAVal, regAVal.Lo+uint32(off*fBytes))
			ov.touch(tb, off)
			// Read-modify-write on the accumulator entry.
			tb.LoadF(pcAcc, regAcc.Lo+uint32(r*fBytes))
			tb.FP(2) // multiply + add
			tb.StoreF(pcAcc, regAcc.Lo+uint32(r*fBytes))
			acc[r] += xv * valsJ[ai]
			touched[r] = true
		}
	}

	// Result extraction: stream the touched accumulator entries out.
	var idx []int
	var val []float64
	outPos := 0
	for r := 0; r < a.Rows; r++ {
		if !touched[r] {
			continue
		}
		g := outPos % nGPE
		tb.On(g)
		tb.LoadF(pcAcc, regAcc.Lo+uint32(r*fBytes))
		tb.Int(1)
		tb.StoreF(pcOut, regOut.Lo+uint32(outPos*12))
		tb.StoreI(pcOut, regOut.Lo+uint32(outPos*12+fBytes))
		idx = append(idx, r)
		val = append(val, acc[r])
		outPos++
	}

	w := Workload{Name: "spmspv", Trace: tb.Build(), EpochFPOps: EpochSpMSpV}
	return matrix.NewSparseVec(a.Rows, idx, val), w, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
