// Package host models the host-side runtime of Section 3.1: the paper's
// Transmuter is driven by a host CPU that selects the kernel variant,
// allocates input/output buffers in the device HBM, streams data out,
// triggers execution, services the telemetry/reconfiguration feedback loop
// and streams results back. The device-side kernel time is what the
// evaluation reports; this package adds the end-to-end offload view, which
// determines when offloading is worth it at all.
package host

import (
	"context"
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Link models the host↔device interconnect (PCIe-class by default).
type Link struct {
	// BandwidthBytesPerSec is the sustained transfer bandwidth.
	BandwidthBytesPerSec float64
	// LatencySec is the per-transfer setup latency (doorbells, descriptor
	// rings).
	LatencySec float64
	// EnergyPerByte is the transfer energy.
	EnergyPerByte float64
}

// DefaultLink returns a PCIe-3 x8-class link.
func DefaultLink() Link {
	return Link{BandwidthBytesPerSec: 8e9, LatencySec: 2e-6, EnergyPerByte: 10e-12}
}

// transfer returns the time and energy to move n bytes across the link.
func (l Link) transfer(n int) (float64, float64) {
	if n <= 0 {
		return 0, 0
	}
	return l.LatencySec + float64(n)/l.BandwidthBytesPerSec, float64(n) * l.EnergyPerByte
}

// Offload describes one kernel dispatch: the device workload plus the
// bytes that must move in each direction.
type Offload struct {
	// Workload is the kernel to execute on the device.
	Workload kernels.Workload
	// BytesIn are operands streamed host → device before launch.
	BytesIn int
	// BytesOut are results streamed device → host after completion.
	BytesOut int
}

// InputBytes computes the streamed operand footprint of sparse operands
// (index + value arrays + pointers), the quantity the host allocator
// reserves in HBM (Section 3.1).
func InputBytes(nnz, dim int) int {
	return nnz*(8+4) + (dim+1)*4
}

// Result is the end-to-end offload outcome.
type Result struct {
	// Device is the on-device execution (kernel time/energy).
	Device power.Metrics
	// TransferSec and TransferJ cover both directions.
	TransferSec float64
	// TransferJ is the energy spent moving bytes over the link.
	TransferJ float64
	// Total is device + transfers (host decision cost is inside the device
	// epochs already, Section 3.4).
	Total power.Metrics
	// Efficiency is the fraction of end-to-end time spent computing.
	Efficiency float64
}

// Runner executes offloads against a simulated device, statically or under
// SparseAdapt control.
type Runner struct {
	// Chip is the device's physical description.
	Chip power.Chip
	BW   float64 // device HBM bandwidth
	// Link models the host↔device interconnect.
	Link Link
	// EpochScale shrinks device epochs for fast tests (1 = paper scale).
	EpochScale float64
	// Obs, when non-nil, is attached to the controller of single-offload
	// adaptive and resilient runs. It is deliberately NOT used by the batch
	// paths: an Observer carries per-run cursors and must not be shared
	// between the concurrent controllers a batch spawns.
	Obs *core.Observer
}

// NewRunner builds a Runner with the paper's device and a default link.
func NewRunner(chip power.Chip, bw, epochScale float64) *Runner {
	if epochScale <= 0 {
		epochScale = 1
	}
	return &Runner{Chip: chip, BW: bw, Link: DefaultLink(), EpochScale: epochScale}
}

// offload runs the offload's device workload with run and adds the
// link economics around the device-side result.
func (r *Runner) offload(off Offload, run func(w kernels.Workload) (core.RunResult, error)) (Result, core.RunResult, error) {
	if off.Workload.Trace == nil {
		return Result{}, core.RunResult{}, fmt.Errorf("host: offload has no workload")
	}
	dev, err := run(off.Workload)
	if err != nil {
		return Result{}, core.RunResult{}, err
	}
	tIn, eIn := r.Link.transfer(off.BytesIn)
	tOut, eOut := r.Link.transfer(off.BytesOut)
	res := Result{
		Device:      dev.Total,
		TransferSec: tIn + tOut,
		TransferJ:   eIn + eOut,
	}
	res.Total = dev.Total
	res.Total.TimeSec += res.TransferSec
	res.Total.EnergyJ += res.TransferJ
	if res.Total.TimeSec > 0 {
		res.Efficiency = dev.Total.TimeSec / res.Total.TimeSec
	}
	return res, dev, nil
}

// RunStaticFull offloads under a fixed device configuration. It checks ctx
// at every device epoch boundary and returns the full device-side run
// result alongside the offload economics, so callers that need the
// per-epoch logs — the job server streams them as progress events — get
// them without a second simulation.
func (r *Runner) RunStaticFull(ctx context.Context, cfg config.Config, off Offload) (Result, core.RunResult, error) {
	return r.offload(off, func(w kernels.Workload) (core.RunResult, error) {
		return core.Drive(ctx, sim.New(r.Chip, r.BW, cfg), kernels.Fixed(w), r.EpochScale, core.Static)
	})
}

// RunAdaptiveFull offloads under SparseAdapt control with the given model,
// checking ctx at every epoch boundary, and returns the full device-side
// run result alongside the offload economics.
func (r *Runner) RunAdaptiveFull(ctx context.Context, model *core.Ensemble, opts core.Options, start config.Config, off Offload) (Result, core.RunResult, error) {
	if opts.EpochScale <= 0 {
		opts.EpochScale = r.EpochScale
	}
	ctl := core.NewController(model, opts).Observe(r.Obs)
	return r.offload(off, func(w kernels.Workload) (core.RunResult, error) {
		return core.Drive(ctx, sim.New(r.Chip, r.BW, start), kernels.Fixed(w), opts.EpochScale, ctl)
	})
}

// RunResilient offloads under resilient SparseAdapt control: the full
// fault-tolerance layer (sanitizer, watchdog fallback, verified
// reconfiguration, optional checkpointing) is active, and inject — which
// may be nil for a clean run — perturbs the feedback loop. It returns the
// full device-side run result so callers can read the resilience report
// alongside the offload economics.
func (r *Runner) RunResilient(model *core.Ensemble, opts core.ResilientOptions, start config.Config, off Offload, inject core.FaultInjector) (Result, core.RunResult, error) {
	if opts.EpochScale <= 0 {
		opts.EpochScale = r.EpochScale
	}
	rc := core.NewResilientController(model, opts).Observe(r.Obs)
	rc.Inject = inject
	return r.offload(off, func(w kernels.Workload) (core.RunResult, error) {
		// The signature supplies no context, so resilient offloads run to
		// completion.
		return rc.Run(context.TODO(), sim.New(r.Chip, r.BW, start), w)
	})
}

// RunBatchAdaptive serves a queue of offloads under SparseAdapt control,
// one engine task per offload — the sweep-traffic path: each dispatch
// simulates on its own machine with its own controller over the shared
// (read-only) model, so N workers serve N clients concurrently and results
// come back in request order. Each dispatch stops at an epoch boundary
// when its task's context is cancelled. A nil eng serves the queue
// serially.
func (r *Runner) RunBatchAdaptive(ctx context.Context, eng *engine.Engine, model *core.Ensemble, opts core.Options, start config.Config, offs []Offload) ([]Result, error) {
	tasks := make([]engine.Task[Result], len(offs))
	for i, off := range offs {
		off := off
		tasks[i] = engine.Task[Result]{Compute: func(ctx context.Context) (Result, error) {
			res, _, err := r.RunAdaptiveFull(ctx, model, opts, start, off)
			return res, err
		}}
	}
	return engine.Map(ctx, eng, tasks)
}

// BreakEvenBytes estimates, for a measured device run, the operand size at
// which transfer time equals compute time — the classic offload
// amortization threshold the host's dispatch logic weighs.
func (r *Runner) BreakEvenBytes(dev power.Metrics) int {
	if r.Link.BandwidthBytesPerSec <= 0 {
		return 0
	}
	t := dev.TimeSec - 2*r.Link.LatencySec
	if t <= 0 {
		return 0
	}
	return int(t * r.Link.BandwidthBytesPerSec)
}
