// Offload amortization: the host-side view of Section 3.1 — every kernel
// dispatch pays buffer allocation and data streaming over the host↔device
// link before the accelerator does any work. This example sweeps operand
// sizes and shows when offloading SpMSpV to the (adaptively controlled)
// Transmuter pays for its transfers.
//
//	go run ./examples/offload
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/host"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

func main() {
	chip := power.Chip{Tiles: 2, GPEsPerTile: 8}
	epochScale := 0.1
	runner := host.NewRunner(chip, sim.DefaultBandwidth, epochScale)

	// One SparseAdapt model for all dispatch sizes.
	sw := trainer.DefaultSweep("spmspv", config.CacheMode, 0.2)
	sw.Chip = chip
	ds, err := trainer.Generate(sw, power.EnergyEfficient)
	if err != nil {
		log.Fatal(err)
	}
	ens, err := trainer.Train(ds, ml.DefaultTreeParams())
	if err != nil {
		log.Fatal(err)
	}

	link := runner.Link
	fmt.Printf("link: %.0f GB/s, %.1f us setup latency\n",
		link.BandwidthBytesPerSec/1e9, link.LatencySec*1e6)
	fmt.Printf("%-8s %10s %12s %12s %12s %12s\n",
		"dim", "bytes-in", "device(us)", "xfer(us)", "total(us)", "efficiency")

	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{64, 256, 1024, 4096} {
		am := matrix.RMATDefault(rng, dim, dim*12)
		a := am.ToCSC()
		x := matrix.RandomVec(rng, dim, 0.5)
		y, w, err := kernels.SpMSpV(a, x, chip.NGPE(), chip.Tiles)
		if err != nil {
			log.Fatal(err)
		}
		off := host.Offload{
			Workload: w,
			BytesIn:  host.InputBytes(a.NNZ(), dim) + host.InputBytes(x.NNZ(), dim),
			BytesOut: y.NNZ() * 12,
		}
		res, _, err := runner.RunAdaptiveFull(context.Background(), ens,
			core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: epochScale},
			config.Baseline, off)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %10d %12.2f %12.2f %12.2f %11.0f%%\n",
			dim, off.BytesIn,
			res.Device.TimeSec*1e6, res.TransferSec*1e6, res.Total.TimeSec*1e6,
			res.Efficiency*100)
	}
	fmt.Println("\nexpected shape: small dispatches are transfer-dominated; larger operands")
	fmt.Println("amortize the link and approach pure device efficiency.")
}
