package core

import (
	"context"
	"strings"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// TestObserverCoversEveryEpoch runs the plain controller with an observer
// attached and checks the trace covers every epoch with decision
// annotations, the simulated-time axis is contiguous, and the registry's
// controller_* counters agree with the run result.
func TestObserverCoversEveryEpoch(t *testing.T) {
	ens := constModel(t, config.BestAvgCache, power.EnergyEfficient)
	w := testWorkload(t, 1)
	reg := obs.NewRegistry()
	trace := obs.NewTraceRecorder()
	o := NewObserver(reg, trace)
	o.TraceCounters = true

	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	res := NewController(ens, Options{Policy: Aggressive, EpochScale: 1}).Observe(o).Run(m, w)

	recs := trace.Epochs()
	if len(recs) != len(res.Epochs) {
		t.Fatalf("trace has %d epoch records for %d epochs", len(recs), len(res.Epochs))
	}
	cursor := 0.0
	for i, r := range recs {
		if r.Epoch != i {
			t.Fatalf("record %d has epoch %d", i, r.Epoch)
		}
		if r.StartSec != cursor {
			t.Fatalf("epoch %d starts at %v, want %v (contiguous sim time)", i, r.StartSec, cursor)
		}
		cursor += r.DurSec
		if r.Predicted == "" || r.Chosen == "" {
			t.Fatalf("epoch %d missing decision annotation: %+v", i, r)
		}
		if len(r.Counters) == 0 {
			t.Fatalf("epoch %d missing telemetry counters with TraceCounters on", i)
		}
		if r.Reconfigured != res.Epochs[i].Reconfigured {
			t.Fatalf("epoch %d reconfigured mismatch", i)
		}
	}

	if got := reg.Counter("controller_epochs_total", "").Load(); got != int64(len(res.Epochs)) {
		t.Fatalf("controller_epochs_total = %d, want %d", got, len(res.Epochs))
	}
	if got := reg.Counter("controller_reconfig_total", "").Load(); got != int64(res.Reconfig) {
		t.Fatalf("controller_reconfig_total = %d, want %d", got, res.Reconfig)
	}
}

// TestObserverResilientEvents drives the resilient controller through a
// watchdog trip (via a huge injected penalty multiplier is overkill here;
// a degraded model does it) and checks fallback epochs and resilience
// events reach both sinks.
func TestObserverResilientEvents(t *testing.T) {
	ens := constModel(t, config.BestAvgCache, power.EnergyEfficient)
	w := bigWorkload(t)
	reg := obs.NewRegistry()
	trace := obs.NewTraceRecorder()
	o := NewObserver(reg, trace)

	opts := DefaultResilientOptions()
	opts.EpochScale = 0.1
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	res, err := NewResilientController(ens, opts).Observe(o).Run(context.Background(), m, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.Len(); got < len(res.Epochs) {
		t.Fatalf("trace has %d events for %d epochs", got, len(res.Epochs))
	}
	if got := reg.Counter("controller_epochs_total", "").Load(); got != int64(len(res.Epochs)) {
		t.Fatalf("controller_epochs_total = %d, want %d", got, len(res.Epochs))
	}

	// The nil observer costs nothing and crashes nothing.
	m2 := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	if _, err := NewResilientController(ens, opts).Run(context.Background(), m2, w); err != nil {
		t.Fatal(err)
	}
}

// TestMetricName checks event-label sanitization for the metric namespace.
func TestMetricName(t *testing.T) {
	if got := metricName("watchdog-trip"); got != "watchdog_trip" {
		t.Fatalf("metricName = %q", got)
	}
	if strings.ContainsAny(metricName("a b-c"), " -") {
		t.Fatal("unsanitized metric name")
	}
}
