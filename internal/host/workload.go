package host

import (
	"fmt"
	"math/rand"

	"sparseadapt/internal/graph"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
)

// operands returns the inputs a run of kernel on matrix am names: A,
// stored CSC, and what A is multiplied by. SpMSpM computes C = A·Aᵀ, so b
// is Aᵀ stored CSR; SpMSpV computes y = A·x with a half-dense x drawn from
// seed+1. The graph kernels traverse A alone.
func operands(kernel string, am *matrix.COO, seed int64) (a *matrix.CSC, b *matrix.CSR, x *matrix.SparseVec) {
	a = am.ToCSC()
	switch kernel {
	case "spmspm":
		b = am.ToCSR().Transpose()
	case "spmspv":
		x = matrix.RandomVec(rand.New(rand.NewSource(seed+1)), a.Cols, 0.5)
	}
	return a, b, x
}

// NewOffload builds the natural variant of kernel (spmspm, spmspv, bfs or
// sssp) on am's operands and sizes the offload's transfers: the operands
// stream in and the kernel's output streams back. BFS and SSSP start from
// vertex 0.
func NewOffload(kernel string, am *matrix.COO, seed int64, chip power.Chip) (Offload, error) {
	a, b, x := operands(kernel, am, seed)
	dim := a.Cols
	off := Offload{BytesIn: InputBytes(a.NNZ(), dim)}
	var err error
	switch kernel {
	case "spmspm":
		var c *matrix.CSR
		c, off.Workload, err = kernels.SpMSpM(a, b, chip.NGPE(), chip.Tiles)
		off.BytesIn *= 2 // both operands stream in
		if c != nil {
			off.BytesOut = InputBytes(c.NNZ(), dim)
		}
	case "spmspv":
		var y *matrix.SparseVec
		y, off.Workload, err = kernels.SpMSpV(a, x, chip.NGPE(), chip.Tiles)
		off.BytesIn += InputBytes(x.NNZ(), dim)
		if y != nil {
			off.BytesOut = y.NNZ() * 12
		}
	case "bfs":
		_, off.Workload, err = graph.BFS(a, 0, chip.NGPE(), chip.Tiles)
		off.BytesOut = dim * 8
	case "sssp":
		_, off.Workload, err = graph.SSSP(a, 0, chip.NGPE(), chip.Tiles)
		off.BytesOut = dim * 8
	default:
		return Offload{}, fmt.Errorf("unknown kernel %q", kernel)
	}
	if err != nil {
		return Offload{}, err
	}
	return off, nil
}

// NewSource is the kernels.Source of kernel over the operands NewOffload
// uses, for runs that pin an algorithm axis or record every variant. Only
// spmspm and spmspv have variants.
func NewSource(kernel, name string, am *matrix.COO, seed int64, chip power.Chip) (*kernels.Source, error) {
	a, b, x := operands(kernel, am, seed)
	switch kernel {
	case "spmspm":
		return kernels.NewSpMSpMSource(name, a, b, chip.NGPE(), chip.Tiles), nil
	case "spmspv":
		return kernels.NewSpMSpVSource(name, a, x, chip.NGPE(), chip.Tiles), nil
	}
	return nil, fmt.Errorf("kernel %q has no algorithm variants (spmspm|spmspv)", kernel)
}

// ModelKernel names the kernel whose trained model controls a run of
// kernel: BFS and SSSP step through SpMSpV and reuse its model (Section
// 5.2).
func ModelKernel(kernel string) string {
	if kernel == "bfs" || kernel == "sssp" {
		return "spmspv"
	}
	return kernel
}
