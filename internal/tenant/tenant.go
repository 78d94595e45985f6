// Package tenant time-multiplexes the simulated fabric between concurrent
// jobs, the way Aspros-style time-multiplexed CGRA deployments share one
// array between kernels. A Mux interleaves the epoch streams of N tenants
// on a single sim.Machine, electing one tenant per scheduling quantum by
// weighted deficit round-robin over priority classes and charging every
// tenant switch a real cost through sim.ContextSwitch: the outgoing
// tenant's cached state is flushed (dirty lines written back through the
// hierarchy) and the resuming tenant pays its cold-cache misses in its own
// epoch accounting. Because a context switch leaves the machine
// state-identical to a fresh one, each tenant's simulated epochs are
// byte-identical to a solo run at any quantum length — the determinism
// contract the property tests pin.
//
// Fairness is accounted per tenant: service received (fabric occupancy
// including attributed switch costs), virtual time (service normalized by
// class weight), slowdown versus an isolated run, and Jain's fairness
// index over the class-weighted service shares.
//
// The package also provides the admission-side half of multi-tenancy: a
// Tracker that layers per-tenant quotas and token-bucket rates on top of
// internal/sched's global admission queue, with honest per-tenant
// Retry-After hints (see quota.go and internal/server).
package tenant

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/sim"
)

// Class is a tenant priority class. Higher classes receive proportionally
// more fabric time per WDRR round.
type Class int

const (
	// Scavenger soaks up leftover capacity (weight 1).
	Scavenger Class = iota
	// Batch is the default throughput class (weight 4).
	Batch
	// Interactive is the latency-sensitive class (weight 8).
	Interactive
)

// Weight returns the WDRR weight of the class: epochs of service granted
// per unit quantum relative to a scavenger.
func (c Class) Weight() int {
	switch c {
	case Interactive:
		return 8
	case Batch:
		return 4
	default:
		return 1
	}
}

func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return "scavenger"
	}
}

// ParseClass parses a priority-class name as it appears in job requests.
// The empty string is Batch, the default class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	case "scavenger":
		return Scavenger, nil
	default:
		return Batch, fmt.Errorf("tenant: unknown priority class %q (want interactive|batch|scavenger)", s)
	}
}

// Job is one tenant's workload as the multiplexer sees it: a bound trace
// cut into epochs, a starting configuration, and an optional per-tenant
// control loop.
type Job struct {
	// ID names the tenant; must be unique within a Mux.
	ID string
	// Class is the priority class electing the tenant's WDRR weight.
	Class Class
	// Trace is the tenant's execution trace (its NCores must match every
	// other tenant's — they share one machine).
	Trace *sim.Trace
	// Epochs is the tenant's epoch grid over Trace.
	Epochs []sim.EpochRange
	// Start is the configuration the tenant's first epoch runs under.
	Start config.Config
	// Control, when non-nil, drives per-tenant adaptive control: the mux
	// feeds it every epoch and reports tenant-switch boundaries so
	// switch-coincident telemetry shifts classify as interference. A nil
	// Control holds Start for the whole run.
	Control *core.ResilientController
}

func (j Job) validate() error {
	if j.ID == "" {
		return fmt.Errorf("tenant: job needs an ID")
	}
	if j.Trace == nil || len(j.Epochs) == 0 {
		return fmt.Errorf("tenant %s: job needs a trace and a non-empty epoch grid", j.ID)
	}
	if !j.Start.Valid() {
		return fmt.Errorf("tenant %s: invalid start configuration", j.ID)
	}
	return nil
}
