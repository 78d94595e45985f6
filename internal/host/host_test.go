package host

import (
	"context"
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

var chip = power.Chip{Tiles: 2, GPEsPerTile: 8}

func makeOffload(t *testing.T, dim, nnz int) Offload {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	am := matrix.Uniform(rng, dim, dim, nnz)
	a := am.ToCSC()
	x := matrix.RandomVec(rng, dim, 0.5)
	y, w, _ := kernels.SpMSpV(a, x, chip.NGPE(), chip.Tiles)
	return Offload{
		Workload: w,
		BytesIn:  InputBytes(a.NNZ(), dim) + InputBytes(x.NNZ(), dim),
		BytesOut: y.NNZ() * 12,
	}
}

func TestLinkTransfer(t *testing.T) {
	l := DefaultLink()
	tt, e := l.transfer(8_000_000)
	if tt <= 1e-3-1e-9 { // 8 MB at 8 GB/s = 1 ms + latency
		t.Fatalf("transfer time %v too small", tt)
	}
	if e <= 0 {
		t.Fatal("transfer must cost energy")
	}
	if z, ze := l.transfer(0); z != 0 || ze != 0 {
		t.Fatal("zero bytes must be free")
	}
}

func TestRunStaticAddsTransfers(t *testing.T) {
	off := makeOffload(t, 128, 1200)
	r := NewRunner(chip, sim.DefaultBandwidth, 0.05)
	res, _, err := r.RunStaticFull(context.Background(), config.Baseline, off)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransferSec <= 0 || res.TransferJ <= 0 {
		t.Fatal("transfers not accounted")
	}
	if res.Total.TimeSec <= res.Device.TimeSec {
		t.Fatal("end-to-end must exceed device time")
	}
	if res.Efficiency <= 0 || res.Efficiency >= 1 {
		t.Fatalf("efficiency %v out of range", res.Efficiency)
	}
	if res.Total.FPOps != res.Device.FPOps {
		t.Fatal("transfers must not change FP work")
	}
}

func TestSmallOffloadIsTransferDominated(t *testing.T) {
	r := NewRunner(chip, sim.DefaultBandwidth, 0.05)
	small, _, err := r.RunStaticFull(context.Background(), config.Baseline, makeOffload(t, 32, 64))
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := r.RunStaticFull(context.Background(), config.Baseline, makeOffload(t, 512, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if big.Efficiency <= small.Efficiency {
		t.Fatalf("bigger offloads should amortize transfers better: %v vs %v",
			big.Efficiency, small.Efficiency)
	}
}

func TestRunErrors(t *testing.T) {
	r := NewRunner(chip, sim.DefaultBandwidth, 1)
	if _, _, err := r.RunStaticFull(context.Background(), config.Baseline, Offload{}); err == nil {
		t.Fatal("empty offload accepted")
	}
}

func TestBreakEven(t *testing.T) {
	r := NewRunner(chip, sim.DefaultBandwidth, 1)
	dev := power.Metrics{TimeSec: 1e-3}
	be := r.BreakEvenBytes(dev)
	// 1 ms at 8 GB/s ≈ 8 MB (minus latency).
	if be < 7_000_000 || be > 8_100_000 {
		t.Fatalf("break-even %d bytes", be)
	}
	if r.BreakEvenBytes(power.Metrics{}) != 0 {
		t.Fatal("zero-time device run has no break-even")
	}
}

func TestInputBytes(t *testing.T) {
	if got := InputBytes(100, 50); got != 100*12+51*4 {
		t.Fatalf("InputBytes = %d", got)
	}
}
