package sim_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/graph"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

var derivedChip = power.Chip{Tiles: 2, GPEsPerTile: 8}

// traceCase builds one kernel trace. Every call returns a freshly built
// trace, so its derived-data caches start cold.
type traceCase struct {
	name  string
	build func(t *testing.T) *sim.Trace
}

// kernelTraces covers SpMSpV in every format × scheduling variant, SpMSpM
// in every dataflow, BFS and SSSP, over small seeded inputs.
func kernelTraces() []traceCase {
	rng := rand.New(rand.NewSource(7))
	am := matrix.Uniform(rng, 96, 96, 700)
	a := am.ToCSC()
	x := matrix.RandomVec(rng, 96, 0.5)
	b := matrix.Uniform(rng, 96, 96, 300).ToCSR()
	nGPE, nLCP := derivedChip.NGPE(), derivedChip.Tiles
	check := func(t *testing.T, w kernels.Workload, err error) *sim.Trace {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w.Trace
	}
	var cases []traceCase
	for f := range config.FormatNames() {
		for s := range config.SchedNames() {
			key := kernels.AlgoKey{Format: f, Sched: s}
			cases = append(cases, traceCase{"spmspv/" + key.String(), func(t *testing.T) *sim.Trace {
				_, w, err := kernels.SpMSpVVariant(a, x, nGPE, nLCP, key)
				return check(t, w, err)
			}})
		}
	}
	for df := range config.DataflowNames() {
		key := kernels.AlgoKey{Dataflow: df, Format: config.FmtCSC}
		cases = append(cases, traceCase{"spmspm/" + key.String(), func(t *testing.T) *sim.Trace {
			_, w, err := kernels.SpMSpMVariant(a, b, nGPE, nLCP, key)
			return check(t, w, err)
		}})
	}
	cases = append(cases,
		traceCase{"bfs", func(t *testing.T) *sim.Trace {
			_, w, err := graph.BFS(a, 0, nGPE, nLCP)
			return check(t, w, err)
		}},
		traceCase{"sssp", func(t *testing.T) *sim.Trace {
			_, w, err := graph.SSSP(a, 0, nGPE, nLCP)
			return check(t, w, err)
		}})
	return cases
}

// referenceFingerprint is the uncached FNV-1a loop Trace.Fingerprint has
// always computed. Persisted disk caches and cluster peers key on that
// value, so the cached one must never drift from it.
func referenceFingerprint(t *sim.Trace) uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(t.NCores))
	mix(uint64(t.NLCP))
	mix(uint64(t.FPOps))
	mix(uint64(t.NNZ))
	for _, e := range t.Events {
		mix(uint64(e.Addr) | uint64(e.PC)<<32 | uint64(e.Core)<<48 | uint64(e.Kind)<<56)
	}
	for _, r := range t.Regions {
		mix(uint64(r.Lo) | uint64(r.Hi)<<32)
		mix(uint64(r.Kind) | uint64(uint32(r.Priority))<<8)
		for _, c := range []byte(r.Name) {
			h ^= uint64(c)
			h *= prime64
		}
	}
	for _, p := range t.Phases {
		mix(uint64(p.Event))
		for _, c := range []byte(p.Name) {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return h
}

func TestFingerprintMatchesReference(t *testing.T) {
	seen := map[uint64]string{}
	for _, c := range kernelTraces() {
		tr := c.build(t)
		want := referenceFingerprint(tr)
		for i := 0; i < 2; i++ { // computed, then cached
			if got := tr.Fingerprint(); got != want {
				t.Fatalf("%s call %d: fingerprint %x, reference %x", c.name, i, got, want)
			}
		}
		if prev, dup := seen[want]; dup {
			t.Fatalf("%s and %s share fingerprint %x", prev, c.name, want)
		}
		seen[want] = c.name
	}
}

// gridQuery is one Epochs (quantile false) or EpochsN (quantile true) call.
type gridQuery struct {
	n        int
	quantile bool
}

func (q gridQuery) on(tr *sim.Trace) []sim.EpochRange {
	if q.quantile {
		return tr.EpochsN(q.n)
	}
	return tr.Epochs(q.n)
}

// TestEpochGridsCached: on one trace, interleaved and repeated Epochs and
// EpochsN calls each return what the same call computes on a fresh trace,
// and mutating a returned grid does not reach the next call's result.
func TestEpochGridsCached(t *testing.T) {
	queries := []gridQuery{
		{10, false}, {10, true}, {3, true}, {25, false}, {10, false},
		{10, true}, {0, true}, {1, true}, {5000, true}, {3, true}, {25, false},
	}
	for _, c := range kernelTraces() {
		tr := c.build(t)
		for i, q := range queries {
			want := q.on(c.build(t))
			got := q.on(tr)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d %+v: cached grid differs from a fresh computation", c.name, i, q)
			}
			if len(got) == 0 {
				t.Fatalf("%s query %d %+v: empty grid", c.name, i, q)
			}
			got[0].End, got[0].Phase = -1, "mutated"
			if again := q.on(tr); !reflect.DeepEqual(again, want) {
				t.Fatalf("%s query %d %+v: mutating a returned grid changed the cache", c.name, i, q)
			}
		}
	}
}

// derivedResult is everything one caller reads from a trace's derived data.
type derivedResult struct {
	fp       uint64
	budget   []sim.EpochRange
	quantile []sim.EpochRange
	rows     [][]sim.EpochResult // cold replays
	memoRows [][]sim.EpochResult // replays through a shared memo
}

func readDerived(t testing.TB, tr *sim.Trace, memo *sim.RunMemo) derivedResult {
	r := derivedResult{fp: tr.Fingerprint(), budget: tr.Epochs(20), quantile: tr.EpochsN(12)}
	for _, cfg := range []config.Config{config.Baseline, config.MaxCfg, config.BestAvgSPM} {
		for _, eps := range [][]sim.EpochRange{r.budget, r.quantile} {
			row, err := sim.RunEpochs(context.Background(), nil, derivedChip, sim.DefaultBandwidth, cfg, tr, eps)
			if err != nil {
				t.Error(err)
			}
			r.rows = append(r.rows, row)
			row, err = sim.RunEpochs(context.Background(), memo, derivedChip, sim.DefaultBandwidth, cfg, tr, eps)
			if err != nil {
				t.Error(err)
			}
			r.memoRows = append(r.memoRows, row)
		}
	}
	return r
}

// TestTraceDerivedDataConcurrent: eight goroutines read the fingerprint and
// epoch grids of one shared, freshly built trace and replay it (with and
// without a shared replay memo) while its caches fill; each sees exactly
// what a serial caller of an identical trace sees. CI runs it with -race
// -count=10.
func TestTraceDerivedDataConcurrent(t *testing.T) {
	c := kernelTraces()[1] // SpMSpV, CSR A operand, least-loaded scheduling
	want := readDerived(t, c.build(t), sim.NewRunMemo(0))

	shared, memo := c.build(t), sim.NewRunMemo(0)
	const workers = 8
	got := make([]derivedResult, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = readDerived(t, shared, memo)
		}()
	}
	wg.Wait()
	for i, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("goroutine %d read different derived data than a serial caller", i)
		}
	}
}
