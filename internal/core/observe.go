package core

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/sim"
)

// Observer bridges a controller run to the observability layer: per-epoch
// trace records (telemetry, predicted vs chosen configuration, transition
// penalties, resilience annotations) into a TraceRecorder, and aggregate
// counters into a Registry. Either sink may be nil; a nil *Observer
// disables everything at the cost of one branch per epoch.
//
// An Observer belongs to one run at a time — it keeps a simulated-time
// cursor and a pending epoch record, so it must not be shared between
// concurrently running controllers (give each its own, over shared sinks:
// the Registry is concurrency-safe, the TraceRecorder too).
type Observer struct {
	// Metrics receives the controller_* metric family (see
	// docs/OBSERVABILITY.md for the catalog).
	Metrics *obs.Registry
	// Trace receives one EpochRecord per epoch plus instants for
	// reconfigurations, watchdog trips and fallback transitions.
	Trace *obs.TraceRecorder
	// TraceCounters includes the full Table 2 telemetry vector in every
	// epoch record (larger traces; off by default).
	TraceCounters bool
	// Tenant, when set, stamps every epoch record with the tenant the run
	// executes on behalf of (multi-tenant fabric multiplexing).
	Tenant string

	// simTime is the cumulative simulated-time cursor placing records on
	// the trace axis.
	simTime float64
	// pendPenalty is the transition cost (cycles) of the reconfiguration
	// entering the next epoch, captured at the boundary.
	pendPenalty float64
	// pend is the current epoch's record, held open so the boundary
	// decision can annotate it before flush.
	pend    *obs.EpochRecord
	pendLog EpochLog
}

// NewObserver builds an observer over the given (possibly nil) sinks.
func NewObserver(reg *obs.Registry, trace *obs.TraceRecorder) *Observer {
	return &Observer{Metrics: reg, Trace: trace}
}

// epoch opens the record for one completed epoch (flushing the previous
// one) and advances the simulated-time cursor, so subsequent reconfig and
// event instants land on this epoch's end boundary.
func (o *Observer) epoch(idx int, log EpochLog) {
	if o == nil {
		return
	}
	o.flush()
	rec := &obs.EpochRecord{
		Epoch:            idx,
		Phase:            log.Phase,
		StartSec:         o.simTime,
		DurSec:           log.Metrics.TimeSec,
		EnergyJ:          log.Metrics.EnergyJ,
		FPOps:            log.Metrics.FPOps,
		Config:           log.Config.String(),
		Reconfigured:     log.Reconfigured,
		PenaltyCycles:    o.pendPenalty,
		Repairs:          log.Repairs,
		TelemetryDropped: log.TelemetryDropped,
		Degraded:         log.Degraded,
		Fallback:         log.Fallback,
		Interference:     log.Interference,
		Tenant:           o.Tenant,
	}
	if o.TraceCounters {
		rec.Counters = log.Counters.FeatureMap()
	}
	o.pend, o.pendLog = rec, log
	o.pendPenalty = 0
	o.simTime += log.Metrics.TimeSec
}

// decision annotates the pending epoch with the boundary decision made
// after it: the model's raw prediction and the policy-filtered choice.
func (o *Observer) decision(pred, chosen config.Config) {
	if o == nil || o.pend == nil {
		return
	}
	o.pend.Predicted = pred.String()
	o.pend.Chosen = chosen.String()
	if pred != chosen {
		o.Metrics.Counter("controller_filtered_predictions_total",
			"predictions modified by the cost-aware policy filter").Inc()
	}
}

// flush writes the pending epoch record to the sinks. Runs call it once
// more after the loop so the final epoch is not lost.
func (o *Observer) flush() {
	if o == nil || o.pend == nil {
		return
	}
	o.Trace.RecordEpoch(*o.pend)
	if r := o.Metrics; r != nil {
		log := o.pendLog
		r.Counter("controller_epochs_total", "epochs executed under controller runs").Inc()
		if log.Repairs > 0 {
			r.Counter("controller_sanitizer_repairs_total", "telemetry values clamped or replaced by the sanitizer").Add(int64(log.Repairs))
		}
		if log.TelemetryDropped {
			r.Counter("controller_telemetry_dropped_total", "epochs whose telemetry never arrived").Inc()
		}
		if log.Degraded {
			r.Counter("controller_degraded_epochs_total", "epochs over the watchdog cost threshold").Inc()
		}
		if log.Fallback {
			r.Counter("controller_fallback_epochs_total", "epochs executed under the safe static fallback").Inc()
		}
		if log.Interference {
			r.Counter("controller_interference_epochs_total",
				"over-threshold epochs classified as co-tenant interference at a tenant-switch boundary").Inc()
		}
	}
	o.pend = nil
}

// reconfig records a boundary reconfiguration the controller applied; its
// penalty cycles are attached to the next epoch's record (where the
// machine folds the cost).
func (o *Observer) reconfig(from, to config.Config, rc sim.ReconfigCost) {
	if o == nil {
		return
	}
	o.pendPenalty = rc.Cycles
	o.Trace.RecordInstant(obs.Instant{
		Name: "reconfig", Cat: "controller", TSSec: o.simTime,
		Args: map[string]string{
			"from":   from.String(),
			"to":     to.String(),
			"cycles": fmt.Sprintf("%.0f", rc.Cycles),
		},
	})
	o.Metrics.Counter("controller_reconfig_total", "boundary reconfigurations applied by the controller").Inc()
	o.Metrics.Counter("controller_reconfig_cycles_total",
		"transition penalty cycles charged by controller reconfigurations").Add(int64(rc.Cycles))
}

// event records a resilience event (watchdog trip, fallback exit,
// rejected prediction, reconfig failure, checkpoint write) as a trace
// instant and a controller_* counter.
func (o *Observer) event(name string, args map[string]string) {
	if o == nil {
		return
	}
	o.Trace.RecordInstant(obs.Instant{Name: name, Cat: "resilience", TSSec: o.simTime, Args: args})
	o.Metrics.Counter("controller_"+metricName(name)+"_total", "resilience events: "+name).Inc()
}

// metricName converts an event label to a metric-safe suffix.
func metricName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '-' || c == ' ' {
			b[i] = '_'
		}
	}
	return string(b)
}
