package experiments

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/power"
	"sparseadapt/internal/tenant"
)

func init() {
	register("mux", "Multi-tenant time-multiplexing: tenant mixes × quantum lengths × priority policies", Mux)
}

// muxTenant is one tenant of the sweep: a workload, a priority class, and
// whether its controller carries a trained model (the others hold their
// start configuration, isolating the watchdog/interference path).
type muxTenant struct {
	id      string
	class   tenant.Class
	kernel  string
	matrix  string
	spmspm  bool
	modeled bool
}

// Mux sweeps tenant mixes × quantum lengths × priority policies on the
// time-multiplexed fabric (internal/tenant): three tenants of mixed class
// and kernel share one simulated machine, every tenant switch is priced
// through sim.ReconfigCost (config swap + full hierarchy flush, with the
// resuming tenant paying its cold-cache misses inside its own epoch
// accounting), and each cell reports per-tenant EDP, slowdown versus an
// isolated run, and Jain's fairness index over virtual-time service.
// The interference column counts post-switch cost spikes the watchdog
// classified as co-tenant interference; fallbacks stays zero because those
// spikes never feed the degradation streak (the fault path would trip it).
func Mux(sc Scale) (*Report, error) {
	mix := []muxTenant{
		{id: "interactive", class: tenant.Interactive, kernel: "spmspv", matrix: "R04", modeled: true},
		{id: "batch", class: tenant.Batch, kernel: "spmspm", matrix: "R02", spmspm: true},
		{id: "scavenger", class: tenant.Scavenger, kernel: "spmspv", matrix: "R07"},
	}
	rep := &Report{
		ID:    "mux",
		Title: "Time-multiplexed fabric: per-tenant EDP/slowdown and fairness across quantum × policy",
		Columns: []string{
			"jain",
			"slow-int", "slow-bat", "slow-scv",
			"edp-int", "edp-bat", "edp-scv",
			"switches", "interf", "fallbk",
		},
	}

	// jobFor builds a fresh Job for one tenant: traces and epoch grids are
	// deterministic, but controller state is not reusable across runs, so
	// every mux (and every solo baseline) gets its own stepper.
	jobFor := func(mt muxTenant) (tenant.Job, error) {
		var j tenant.Job
		if mt.spmspm {
			wl, e := buildSpMSpM(sc, mt.matrix)
			if e != nil {
				return j, e
			}
			j.Trace, j.Epochs = wl.Trace, wl.Epochs(sc.Epoch)
		} else {
			wl, e := buildSpMSpV(sc, mt.matrix)
			if e != nil {
				return j, e
			}
			j.Trace, j.Epochs = wl.Trace, wl.Epochs(sc.Epoch)
		}
		j.ID = mt.id
		j.Class = mt.class
		// Every tenant starts in a cache-mode configuration: the multiplexer
		// context-switches at runtime, and cache↔SPM is a coarse (recompile)
		// transition ContextSwitch correctly refuses.
		j.Start = startConfig(config.CacheMode)
		var model *core.Ensemble
		if mt.modeled {
			var err error
			model, err = Model(sc, mt.kernel, config.CacheMode, power.EnergyEfficient)
			if err != nil {
				return j, err
			}
		}
		j.Control = core.NewResilientController(model, core.DefaultResilientOptions())
		return j, nil
	}

	// Solo baselines: each tenant alone on the fabric, same controller
	// stack, no switches — the slowdown denominators.
	solo := map[string]tenant.TenantResult{}
	soloFallbacks := 0
	for _, mt := range mix {
		j, err := jobFor(mt)
		if err != nil {
			return nil, err
		}
		res, err := tenant.Isolated(sc.Chip, sc.BW, j)
		if err != nil {
			return nil, err
		}
		solo[mt.id] = res
		soloFallbacks += res.Resilience.Fallbacks
	}

	for _, flat := range []bool{false, true} {
		policy := "wdrr"
		if flat {
			policy = "flat"
		}
		for _, q := range []int{1, 4, 16} {
			mx := tenant.New(sc.Chip, sc.BW, tenant.Options{Quantum: q, Flat: flat})
			for _, mt := range mix {
				j, err := jobFor(mt)
				if err != nil {
					return nil, err
				}
				if err := mx.Add(j); err != nil {
					return nil, err
				}
			}
			res, err := mx.Run()
			if err != nil {
				return nil, err
			}
			slow := map[string]float64{}
			edp := map[string]float64{}
			interf, fallbacks := 0, 0
			for _, tr := range res.Tenants {
				slow[tr.ID] = tenant.Slowdown(tr.FinishSec, solo[tr.ID].Metrics.TimeSec)
				// EDP over the tenant's own accounting (its epochs plus the
				// switch costs attributed to it), in nJ·s for legible digits.
				edp[tr.ID] = (tr.Metrics.TimeSec + tr.SwitchTimeSec) * (tr.Metrics.EnergyJ + tr.SwitchEnergyJ) * 1e9
				interf += tr.Resilience.InterferenceEpochs
				fallbacks += tr.Resilience.Fallbacks
			}
			rep.Add(fmt.Sprintf("%s/q=%d", policy, q),
				res.Jain(),
				slow["interactive"], slow["batch"], slow["scavenger"],
				edp["interactive"], edp["batch"], edp["scavenger"],
				float64(res.Switches), float64(interf), float64(fallbacks))
		}
	}
	rep.Note("slowdown = multiplexed finish time / isolated run time; 1 = no interference cost")
	rep.Note("jain is Jain's index over virtual-time service (service / class weight); 1 = weight-proportional sharing")
	rep.Note("every tenant switch is priced through sim.ReconfigCost (config swap + hierarchy flush); the resuming tenant pays its cold-cache misses in its own epochs")
	rep.Note("interf counts post-switch cost spikes classified as co-tenant interference; those epochs bypass the watchdog's degradation streak, so multiplexing never adds trips beyond the %d workload-intrinsic fallback(s) of the isolated baselines", soloFallbacks)
	return rep, nil
}
