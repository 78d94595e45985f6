package core

import (
	"context"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Boundary is one epoch boundary as Drive hands it to a Stepper: epoch
// Epoch has just run on the machine, under the machine's current
// configuration, and produced Result.
type Boundary struct {
	Epoch  int
	Result sim.EpochResult
	// Last reports that Epoch is the final epoch of the grid.
	Last bool
	// Pinned reports a single-variant source (kernels.Fixed): its one
	// trace cannot change dataflow, format or scheduling, so controllers
	// hold those axes.
	Pinned bool
	// Run is the result so far. Its last entry is this epoch's log, which
	// the stepper may annotate. Drive counts this boundary's
	// reconfiguration into Run.Reconfig only after Step returns.
	Run *RunResult
}

// Log returns the epoch's entry in the run result.
func (b Boundary) Log() *EpochLog { return &b.Run.Epochs[b.Epoch] }

// Stepper is the epoch-boundary decision of one control scheme (static,
// adaptive, history, resilient, or a fixed schedule). Step observes the
// epoch and may reconfigure the machine for the next one. It reports
// whether a reconfiguration took, which marks the next epoch's log and
// counts toward RunResult.Reconfig, and whether the run stops after this
// epoch. A stepper with an observer also has an unexported flush method,
// which Drive calls when the run ends.
type Stepper interface {
	Step(m *sim.Machine, b Boundary) (reconfigured, stop bool, err error)
}

// Drive is the epoch loop every control scheme runs through (Figure 3a):
// it binds the variant of src that the machine's configuration selects,
// walks its epoch grid at the given epoch scale, runs each epoch and hands
// the boundary to the stepper. When the stepper moves the algorithm axes
// to another variant, Drive rebinds the machine to that variant's trace
// and continues at the same epoch index on its work-aligned grid; an
// algorithmic switch flushes both cache levels and charges the conversion,
// so no stale working set survives the rebind. The context is checked at
// every boundary: a cancelled run stops there and returns the partial
// result with the context's error.
func Drive(ctx context.Context, m *sim.Machine, src *kernels.Source, scale float64, s Stepper) (RunResult, error) {
	if f, ok := s.(interface{ flush() }); ok {
		defer f.flush()
	}
	w, eps, err := src.Grid(m.Config(), scale)
	if err != nil {
		return RunResult{}, err
	}
	m.BindTrace(w.Trace)
	var res RunResult
	reconfigured := false
	for i := 0; i < len(eps); i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		r := m.RunEpoch(eps[i])
		res.Total.Add(r.Metrics)
		res.Epochs = append(res.Epochs, EpochLog{
			Config: m.Config(), Metrics: r.Metrics, Counters: r.Counters,
			Phase: r.Phase, Reconfigured: reconfigured,
		})
		variant := src.Key(kernels.AlgoOf(m.Config()))
		var stop bool
		reconfigured, stop, err = s.Step(m, Boundary{Epoch: i, Result: r, Last: i == len(eps)-1, Pinned: src.Pinned(), Run: &res})
		if err != nil {
			return res, err
		}
		if reconfigured {
			res.Reconfig++
		}
		if stop {
			break
		}
		if i+1 < len(eps) && src.Key(kernels.AlgoOf(m.Config())) != variant {
			if w, eps, err = src.Grid(m.Config(), scale); err != nil {
				return res, err
			}
			m.BindTrace(w.Trace)
		}
	}
	return res, nil
}

// Static is the stepper of the non-reconfiguring comparison points of
// Section 5.3 (Baseline, Best Avg, Max Cfg, Ideal Static): it holds the
// machine's configuration for the whole run.
var Static Stepper = static{}

type static struct{}

func (static) Step(*sim.Machine, Boundary) (bool, bool, error) { return false, false, nil }

// RunStatic executes the workload under a fixed configuration.
func RunStatic(chip power.Chip, bw float64, cfg config.Config, w kernels.Workload, epochScale float64) RunResult {
	res, _ := Drive(context.Background(), sim.New(chip, bw, cfg), kernels.Fixed(w), epochScale, Static)
	return res
}
