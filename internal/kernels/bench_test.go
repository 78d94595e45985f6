package kernels_test

import (
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/graph"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// BenchmarkTraceBuild times building one kernel trace on the 2×8 chip, per
// kernel variant: SpMSpV in each A-operand format, SpMSpM in each dataflow,
// BFS and SSSP, all over dataset entry R04 at the small experiment scale
// (132², 1.5k nonzeros; A·Aᵀ for SpMSpM, a 50%-dense x for SpMSpV), plus
// outer-product SpMSpM A·Aᵀ over a uniform 512² matrix with 8.5k nonzeros.
// Each iteration runs the kernel functionally and builds its trace, as a
// kernels.Source does for each variant it resolves; the built events must
// fill their slice exactly. Besides the -benchmem numbers it reports
// events/op, the encoded events of the built trace, and ops/op, the
// operations they represent, so the cost per operation compares across
// trace encodings.
func BenchmarkTraceBuild(b *testing.B) {
	chip := power.Chip{Tiles: 2, GPEsPerTile: 8}
	nGPE, nLCP := chip.NGPE(), chip.Tiles
	e, err := matrix.Entry("R04")
	if err != nil {
		b.Fatal(err)
	}
	am := e.Generate(0.12, 1)
	a, at := am.ToCSC(), am.ToCSR().Transpose()
	x := matrix.RandomVec(rand.New(rand.NewSource(2)), a.Cols, 0.5)
	bm := matrix.Uniform(rand.New(rand.NewSource(3)), 512, 512, 8500)
	big, bigT := bm.ToCSC(), bm.ToCSR().Transpose()

	spmspv := func(format int) func() (kernels.Workload, error) {
		return func() (kernels.Workload, error) {
			_, w, err := kernels.SpMSpVVariant(a, x, nGPE, nLCP, kernels.AlgoKey{Format: format})
			return w, err
		}
	}
	spmspm := func(a *matrix.CSC, b *matrix.CSR, dataflow int) func() (kernels.Workload, error) {
		return func() (kernels.Workload, error) {
			_, w, err := kernels.SpMSpMVariant(a, b, nGPE, nLCP, kernels.AlgoKey{Dataflow: dataflow, Format: config.FmtCSC})
			return w, err
		}
	}
	cases := []struct {
		name  string
		build func() (kernels.Workload, error)
	}{
		{"spmspv/csr", spmspv(config.FmtCSR)},
		{"spmspv/csc", spmspv(config.FmtCSC)},
		{"spmspv/coo", spmspv(config.FmtCOO)},
		{"spmspm/outer", spmspm(a, at, config.DFOuter)},
		{"spmspm/inner", spmspm(a, at, config.DFInner)},
		{"spmspm/row", spmspm(a, at, config.DFRow)},
		{"bfs", func() (kernels.Workload, error) {
			_, w, err := graph.BFS(a, 0, nGPE, nLCP)
			return w, err
		}},
		{"sssp", func() (kernels.Workload, error) {
			_, w, err := graph.SSSP(a, 0, nGPE, nLCP)
			return w, err
		}},
		{"spmspm/outer-512", spmspm(big, bigT, config.DFOuter)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var tr *sim.Trace
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := c.build()
				if err != nil {
					b.Fatal(err)
				}
				tr = w.Trace
			}
			if cap(tr.Events) != len(tr.Events) {
				b.Fatalf("%d events in a slice of capacity %d", len(tr.Events), cap(tr.Events))
			}
			ops := 0
			for _, e := range tr.Events {
				ops += e.Ops()
			}
			b.ReportMetric(float64(len(tr.Events)), "events/op")
			b.ReportMetric(float64(ops), "ops/op")
		})
	}
}
