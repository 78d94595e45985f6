package kernels

import (
	"fmt"
	"sync"

	"sparseadapt/internal/config"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sim"
)

// AlgoKey is the algorithm-level slice of a configuration: the axes that
// select which kernel variant executes (as opposed to the hardware knobs,
// which only change how a fixed trace replays).
type AlgoKey struct {
	Dataflow int
	Format   int
	Sched    int
}

// AlgoOf extracts the algorithm axes of a configuration.
func AlgoOf(cfg config.Config) AlgoKey {
	return AlgoKey{Dataflow: cfg[config.Dataflow], Format: cfg[config.Format], Sched: cfg[config.SchedPolicy]}
}

// String renders the key like "outer/csc/rr".
func (k AlgoKey) String() string {
	df := "?"
	if names := config.DataflowNames(); k.Dataflow >= 0 && k.Dataflow < len(names) {
		df = names[k.Dataflow]
	}
	f := "?"
	if names := config.FormatNames(); k.Format >= 0 && k.Format < len(names) {
		f = names[k.Format]
	}
	s := "?"
	if names := config.SchedNames(); k.Sched >= 0 && k.Sched < len(names) {
		s = names[k.Sched]
	}
	return df + "/" + f + "/" + s
}

// NewSchedulerFor builds the Scheduler for a config.SchedPolicy value.
func NewSchedulerFor(kind, n int) Scheduler {
	if kind == config.SchedLL {
		return NewLeastLoaded(n)
	}
	return NewRoundRobin(n)
}

// SpMSpMVariant computes C = A·B with the dataflow, A-operand format and
// scheduling policy of key, converting the operands to the dataflow's
// consumed layout as needed. The numeric result is the same for every key
// (within floating-point association); the trace differs.
func SpMSpMVariant(a *matrix.CSC, b *matrix.CSR, nGPE, nLCP int, key AlgoKey) (*matrix.CSR, Workload, error) {
	sched := NewSchedulerFor(key.Sched, nGPE)
	switch key.Dataflow {
	case config.DFInner:
		return spmspmInner(a.ToCSR(), b.ToCSC(), nGPE, nLCP, sched, key.Format)
	case config.DFRow:
		return spmspmRow(a.ToCSR(), b, nGPE, nLCP, sched, key.Format)
	default:
		return spmspmOuter(a, b, nGPE, nLCP, sched, key.Format)
	}
}

// SpMSpVVariant computes y = A·x with the A-operand format and scheduling
// policy of key. SpMSpV has a single formulation, so the dataflow axis is
// ignored.
func SpMSpVVariant(a *matrix.CSC, x *matrix.SparseVec, nGPE, nLCP int, key AlgoKey) (*matrix.SparseVec, Workload, error) {
	return spmspv(a, x, nGPE, nLCP, NewSchedulerFor(key.Sched, nGPE), key.Format)
}

// Source holds one kernel invocation's operands and lazily builds the
// trace of each algorithm variant on demand, caching them so oracle
// recordings, trainer sweeps and controller runs over the widened action
// space trace each variant exactly once. Safe for concurrent use; variant
// builds are deterministic, so results are identical regardless of build
// order.
//
// A source built by Fixed holds a single variant instead: one already
// traced workload that every configuration replays, and nothing to build.
type Source struct {
	name     string
	build    func(key AlgoKey) (Workload, error)
	collapse func(key AlgoKey) AlgoKey

	mu    sync.Mutex
	cache map[AlgoKey]Workload
}

// Fixed wraps one workload as a single-variant source: every configuration
// replays w itself, on the kernel's FP-op budget grid (Workload.Epochs).
// Its one trace cannot change dataflow, format or scheduling, so the
// source is Pinned.
func Fixed(w Workload) *Source {
	return &Source{
		name:     w.Name,
		collapse: func(AlgoKey) AlgoKey { return AlgoKey{} },
		cache:    map[AlgoKey]Workload{{}: w},
	}
}

// NewSpMSpMSource wraps a C = A·B invocation. name labels the workload in
// reports (variants append their AlgoKey).
func NewSpMSpMSource(name string, a *matrix.CSC, b *matrix.CSR, nGPE, nLCP int) *Source {
	return &Source{
		name: name,
		build: func(key AlgoKey) (Workload, error) {
			_, w, err := SpMSpMVariant(a, b, nGPE, nLCP, key)
			return w, err
		},
		collapse: func(key AlgoKey) AlgoKey { return key },
		cache:    map[AlgoKey]Workload{},
	}
}

// NewSpMSpVSource wraps a y = A·x invocation. The dataflow axis collapses
// (SpMSpV has one formulation), so configurations differing only in
// dataflow share a variant.
func NewSpMSpVSource(name string, a *matrix.CSC, x *matrix.SparseVec, nGPE, nLCP int) *Source {
	return &Source{
		name: name,
		build: func(key AlgoKey) (Workload, error) {
			_, w, err := SpMSpVVariant(a, x, nGPE, nLCP, key)
			return w, err
		},
		collapse: func(key AlgoKey) AlgoKey { key.Dataflow = config.DFOuter; return key },
		cache:    map[AlgoKey]Workload{},
	}
}

// Name returns the source's report label.
func (s *Source) Name() string { return s.name }

// Key normalizes an AlgoKey to the variant that actually executes (e.g.
// SpMSpV collapses the dataflow axis).
func (s *Source) Key(key AlgoKey) AlgoKey { return s.collapse(key) }

// Variant returns the workload for the configuration's algorithm axes,
// building and caching it on first use.
func (s *Source) Variant(cfg config.Config) (Workload, error) {
	key := s.collapse(AlgoOf(cfg))
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.cache[key]; ok {
		return w, nil
	}
	w, err := s.build(key)
	if err != nil {
		return Workload{}, fmt.Errorf("kernels: building %s variant %v: %w", s.name, key, err)
	}
	w.Name = s.name + "/" + key.String()
	s.cache[key] = w
	return w, nil
}

// Pinned reports whether the source replays a single trace under every
// configuration (see Fixed), so that control must hold the algorithm axes.
func (s *Source) Pinned() bool { return s.build == nil }

// Grid returns the variant that runs under cfg and the epoch grid it runs
// on at the epoch scale. A fixed source cuts its workload at the kernel's
// FP-op budget. A multi-variant source cuts every variant into as many
// work-aligned epochs (sim.Trace.EpochsN) as the natural variant's — the
// Baseline configuration's — budget grid has, so epoch e covers the same
// fraction of the arithmetic work under every configuration and runs can
// switch variants at any boundary.
func (s *Source) Grid(cfg config.Config, scale float64) (Workload, []sim.EpochRange, error) {
	w, err := s.Variant(cfg)
	if err != nil {
		return Workload{}, nil, err
	}
	if s.Pinned() {
		return w, w.Epochs(scale), nil
	}
	nat, err := s.Variant(config.Baseline)
	if err != nil {
		return Workload{}, nil, err
	}
	n := len(nat.Epochs(scale))
	if n == 0 {
		return w, nil, nil
	}
	return w, w.Trace.EpochsN(n), nil
}
